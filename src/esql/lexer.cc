#include "esql/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace dbs3 {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(input[j])) ++j;
      token.kind = Token::Kind::kIdent;
      token.text = input.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t j = i + 1;
      while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) {
        ++j;
      }
      token.kind = Token::Kind::kInt;
      token.text = input.substr(i, j - i);
      const auto [end, ec] = std::from_chars(
          input.data() + i, input.data() + j, token.value);
      if (ec != std::errc() || end != input.data() + j) {
        return Status::InvalidArgument(
            "integer literal " + token.text + " at position " +
            std::to_string(i) + " is out of the 64-bit range");
      }
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      while (j < n && input[j] != '\'') ++j;
      if (j >= n) {
        return Status::InvalidArgument(
            "unterminated string literal at position " + std::to_string(i));
      }
      token.kind = Token::Kind::kString;
      token.text = input.substr(i + 1, j - i - 1);
      i = j + 1;
    } else {
      // Two-character operators first.
      static constexpr const char* kTwoChar[] = {"<>", "!=", "<=", ">="};
      std::string two = input.substr(i, 2);
      bool matched = false;
      for (const char* op : kTwoChar) {
        if (two == op) {
          token.kind = Token::Kind::kSymbol;
          token.text = two;
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        static constexpr const char kOneChar[] = "(),;.*=<>";
        if (std::string(kOneChar).find(c) == std::string::npos) {
          return Status::InvalidArgument(
              std::string("unexpected character '") + c + "' at position " +
              std::to_string(i));
        }
        token.kind = Token::Kind::kSymbol;
        token.text = std::string(1, c);
        ++i;
      }
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = Token::Kind::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace dbs3
