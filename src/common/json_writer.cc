#include "common/json_writer.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace sbon {

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!open_.empty() && open_.back().close == '}' && !after_key_);
  NextElement();
  Quote(key);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  BeginValue();
  Quote(s);
  return *this;
}

JsonWriter& JsonWriter::Double(double v, int decimals) {
  if (!std::isfinite(v)) return Null();
  assert(decimals <= 17);
  char buf[352];  // DBL_MAX in fixed point with 17 decimals fits
  char* end =
      (decimals >= 0 ? std::to_chars(buf, buf + sizeof(buf), v,
                                     std::chars_format::fixed, decimals)
                     : std::to_chars(buf, buf + sizeof(buf), v))
          .ptr;
  std::string text(buf, static_cast<size_t>(end - buf));
  if (decimals < 0 && text.find_first_of(".e") == std::string::npos) {
    text += ".0";
  }
  return Token(text);
}

JsonWriter& JsonWriter::Embed(const JsonWriter& value) {
  assert(value.open_.empty() && !value.out_.empty());
  BeginValue();
  // Escaping keeps newlines out of strings, so each one is a line break.
  const std::string indent = '\n' + std::string(2 * open_.size(), ' ');
  for (const char c : value.out_) {
    if (c == '\n') {
      out_ += indent;
    } else {
      out_ += c;
    }
  }
  return *this;
}

JsonWriter& JsonWriter::Token(std::string_view text) {
  BeginValue();
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::Open(char open, char close) {
  BeginValue();
  out_ += open;
  open_.push_back({close, false});
  return *this;
}

JsonWriter& JsonWriter::Close(char close) {
  assert(!open_.empty() && open_.back().close == close && !after_key_);
  const bool had_element = open_.back().has_element;
  open_.pop_back();
  if (had_element) out_ += '\n' + std::string(2 * open_.size(), ' ');
  out_ += close;
  return *this;
}

// A value goes right after its key; otherwise it is an array element or
// the document's one top-level value.
void JsonWriter::BeginValue() {
  if (after_key_) {
    after_key_ = false;
  } else if (!open_.empty()) {
    assert(open_.back().close == ']');
    NextElement();
  } else {
    assert(out_.empty());
  }
}

void JsonWriter::NextElement() {
  if (open_.back().has_element) out_ += ',';
  open_.back().has_element = true;
  out_ += '\n' + std::string(2 * open_.size(), ' ');
}

void JsonWriter::Quote(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
      out_ += esc;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

}  // namespace sbon
