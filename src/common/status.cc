#include "common/status.h"

namespace rwdt {
namespace {

const char* CodeName(Code code) {
  switch (code) {
    case Code::kOk:
      return "OK";
    case Code::kInvalidArgument:
      return "InvalidArgument";
    case Code::kParseError:
      return "ParseError";
    case Code::kNotFound:
      return "NotFound";
    case Code::kOutOfRange:
      return "OutOfRange";
    case Code::kUnsupported:
      return "Unsupported";
    case Code::kResourceExhausted:
      return "ResourceExhausted";
    case Code::kInternal:
      return "Internal";
    case Code::kLexError:
      return "LexError";
    case Code::kEncodingError:
      return "EncodingError";
  }
  return "Unknown";
}

}  // namespace

Status::Status(Code code, std::string message)
    : rep_(code == Code::kOk ? nullptr : new Rep{code, std::move(message)}) {}

Status::Rep* Status::Copy(const Rep& rep) { return new Rep(rep); }

const std::string& Status::EmptyMessage() {
  static const std::string* const kEmpty = new std::string();
  return *kEmpty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(rep_->code);
  if (!rep_->message.empty()) {
    out += ": ";
    out += rep_->message;
  }
  return out;
}

const char* ErrorClassName(ErrorClass c) {
  switch (c) {
    case ErrorClass::kLexError:
      return "lex_error";
    case ErrorClass::kParseError:
      return "parse_error";
    case ErrorClass::kUnsupportedFeature:
      return "unsupported_feature";
    case ErrorClass::kResourceExhausted:
      return "resource_exhausted";
    case ErrorClass::kEncodingError:
      return "encoding_error";
  }
  return "?";
}

ErrorClass ClassifyStatus(const Status& status) {
  switch (status.code()) {
    case Code::kLexError:
      return ErrorClass::kLexError;
    case Code::kUnsupported:
      return ErrorClass::kUnsupportedFeature;
    case Code::kResourceExhausted:
      return ErrorClass::kResourceExhausted;
    case Code::kEncodingError:
      return ErrorClass::kEncodingError;
    default:
      return ErrorClass::kParseError;
  }
}

}  // namespace rwdt
