#ifndef SBON_COMMON_JSON_WRITER_H_
#define SBON_COMMON_JSON_WRITER_H_

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace sbon {

/// Streaming JSON writer for the benchmark harnesses' machine-readable
/// results. Objects and arrays nest; the writer places the commas and
/// indents two spaces per level. Strings are escaped, and a double that is
/// not finite is written as `null` (JSON has no NaN or infinity). A key
/// outside an object, a value without a key inside one, or an unmatched
/// End is a program bug.
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("nodes").Int(512);
///   w.Key("ns_per_epoch").Double(350380.6, 1);
///   w.EndObject();
///   std::puts(w.str().c_str());
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{', '}'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('[', ']'); }
  JsonWriter& EndArray() { return Close(']'); }

  /// Names the next value; only inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view s);
  JsonWriter& Bool(bool b) { return Token(b ? "true" : "false"); }
  JsonWriter& Null() { return Token("null"); }
  template <std::integral T>
  JsonWriter& Int(T v) {
    return Token(std::to_string(v));
  }
  /// `decimals` >= 0 writes fixed point with that many decimals (at most
  /// 17). The default writes the shortest text that reads back as `v`,
  /// with ".0" appended when it would otherwise read as an integer.
  JsonWriter& Double(double v, int decimals = -1);
  /// The finished document of `value`, re-indented to this depth.
  JsonWriter& Embed(const JsonWriter& value);

  /// Everything written so far.
  const std::string& str() const { return out_; }

 private:
  struct Level {
    char close;        // the bracket that ends this container
    bool has_element;  // a comma goes before the next element
  };

  JsonWriter& Token(std::string_view text);
  JsonWriter& Open(char open, char close);
  JsonWriter& Close(char close);
  void BeginValue();
  void NextElement();
  void Quote(std::string_view s);

  std::string out_;
  std::vector<Level> open_;
  bool after_key_ = false;
};

}  // namespace sbon

#endif  // SBON_COMMON_JSON_WRITER_H_
