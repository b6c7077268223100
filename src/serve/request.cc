#include "serve/request.h"

#include <cmath>
#include <utility>

#include "util/json_reader.h"
#include "util/parse_number.h"

namespace pincer {

namespace {

Status WrongType(std::string_view key, std::string_view want) {
  return Status::InvalidArgument("request field \"" + std::string(key) +
                                 "\" must be a " + std::string(want));
}

// JsonValue keeps a number's raw source token, so the same strict helpers
// that validate CLI flags validate wire fields — one parser, one set of
// rejection rules.
Status ParseUintField(const JsonValue& value, std::string_view key,
                      size_t& out) {
  if (value.type != JsonValue::Type::kNumber) {
    return WrongType(key, "non-negative integer");
  }
  StatusOr<size_t> parsed = ParseSize(value.scalar, key);
  if (!parsed.ok()) return parsed.status();
  out = *parsed;
  return Status::OK();
}

Status ParseDoubleField(const JsonValue& value, std::string_view key,
                        double& out) {
  if (value.type != JsonValue::Type::kNumber) return WrongType(key, "number");
  StatusOr<double> parsed = ParseDouble(value.scalar, key);
  if (!parsed.ok()) return parsed.status();
  out = *parsed;
  return Status::OK();
}

Status ParseBoolField(const JsonValue& value, std::string_view key,
                      bool& out) {
  if (value.type != JsonValue::Type::kBool) return WrongType(key, "boolean");
  out = value.boolean;
  return Status::OK();
}

Status ParseStringField(const JsonValue& value, std::string_view key,
                        std::string& out) {
  if (value.type != JsonValue::Type::kString) return WrongType(key, "string");
  out = value.scalar;
  return Status::OK();
}

}  // namespace

std::string_view RequestOpName(Request::Op op) {
  switch (op) {
    case Request::Op::kPing:
      return "ping";
    case Request::Op::kList:
      return "list";
    case Request::Op::kMine:
      return "mine";
    case Request::Op::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

StatusOr<Request> ParseRequest(std::string_view line) {
  StatusOr<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    return Status::InvalidArgument("malformed request JSON: " +
                                   doc.status().message());
  }
  if (!doc->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request request;
  bool have_op = false;
  bool have_min_support = false;
  for (const auto& [key, value] : doc->object) {
    if (key == "op") {
      std::string op;
      PINCER_RETURN_IF_ERROR(ParseStringField(value, key, op));
      if (op == "ping") {
        request.op = Request::Op::kPing;
      } else if (op == "list") {
        request.op = Request::Op::kList;
      } else if (op == "mine") {
        request.op = Request::Op::kMine;
      } else if (op == "shutdown") {
        request.op = Request::Op::kShutdown;
      } else {
        return Status::InvalidArgument(
            "unknown op \"" + op + "\" (want ping|list|mine|shutdown)");
      }
      have_op = true;
    } else if (key == "id") {
      PINCER_RETURN_IF_ERROR(ParseStringField(value, key, request.id));
    } else if (key == "database") {
      PINCER_RETURN_IF_ERROR(ParseStringField(value, key, request.database));
    } else if (key == "min_support") {
      PINCER_RETURN_IF_ERROR(
          ParseDoubleField(value, key, request.min_support));
      have_min_support = true;
    } else if (key == "algorithm") {
      std::string name;
      PINCER_RETURN_IF_ERROR(ParseStringField(value, key, name));
      StatusOr<Algorithm> parsed = ParseAlgorithm(name);
      if (!parsed.ok()) return parsed.status();
      request.algorithm = *parsed;
    } else if (key == "max_passes") {
      PINCER_RETURN_IF_ERROR(ParseUintField(value, key, request.max_passes));
    } else if (key == "mfcs_cardinality_limit") {
      PINCER_RETURN_IF_ERROR(
          ParseUintField(value, key, request.mfcs_cardinality_limit));
    } else if (key == "mfcs_work_limit") {
      PINCER_RETURN_IF_ERROR(
          ParseUintField(value, key, request.mfcs_work_limit));
    } else if (key == "budget_ms") {
      PINCER_RETURN_IF_ERROR(ParseDoubleField(value, key, request.budget_ms));
      if (request.budget_ms < 0) {
        return Status::InvalidArgument("budget_ms must be >= 0");
      }
    } else if (key == "no_cache") {
      PINCER_RETURN_IF_ERROR(ParseBoolField(value, key, request.no_cache));
    } else {
      return Status::InvalidArgument("unknown request field \"" + key + "\"");
    }
  }

  if (!have_op) return Status::InvalidArgument("request is missing \"op\"");
  if (request.op == Request::Op::kMine) {
    if (request.database.empty()) {
      return Status::InvalidArgument("mine request needs \"database\"");
    }
    if (!have_min_support) {
      return Status::InvalidArgument("mine request needs \"min_support\"");
    }
    if (!(request.min_support > 0.0) || request.min_support > 1.0) {
      return Status::InvalidArgument("min_support must be in (0, 1]");
    }
  }
  return request;
}

}  // namespace pincer
