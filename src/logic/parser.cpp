#include "logic/parser.h"

#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "numeric/decimal.h"

namespace swfomc::logic {

namespace {

enum class TokenKind {
  kLParen,
  kRParen,
  kComma,
  kDot,       // '.' or ':' after quantifier variables
  kBang,      // '!'
  kAmp,       // '&'
  kPipe,      // '|'
  kImplies,   // '=>'
  kIff,       // '<=>'
  kEquals,    // '='
  kNotEquals, // '!='
  kIdent,     // relation or variable name
  kNumber,
  kForall,
  kExists,
  kTrue,
  kFalse,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  std::uint64_t number = 0;
  std::size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { Advance(); }

  const Token& current() const { return current_; }

  void Advance() {
    SkipWhitespace();
    current_.position = pos_;
    if (pos_ >= text_.size()) {
      current_ = Token{TokenKind::kEnd, "", 0, pos_};
      return;
    }
    char c = text_[pos_];
    switch (c) {
      case '(': ++pos_; current_ = {TokenKind::kLParen, "(", 0, pos_}; return;
      case ')': ++pos_; current_ = {TokenKind::kRParen, ")", 0, pos_}; return;
      case ',': ++pos_; current_ = {TokenKind::kComma, ",", 0, pos_}; return;
      case '.':
      case ':': ++pos_; current_ = {TokenKind::kDot, ".", 0, pos_}; return;
      case '&': ++pos_; current_ = {TokenKind::kAmp, "&", 0, pos_}; return;
      case '|': ++pos_; current_ = {TokenKind::kPipe, "|", 0, pos_}; return;
      case '!':
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
          pos_ += 2;
          current_ = {TokenKind::kNotEquals, "!=", 0, pos_};
        } else {
          ++pos_;
          current_ = {TokenKind::kBang, "!", 0, pos_};
        }
        return;
      case '=':
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
          pos_ += 2;
          current_ = {TokenKind::kImplies, "=>", 0, pos_};
        } else {
          ++pos_;
          current_ = {TokenKind::kEquals, "=", 0, pos_};
        }
        return;
      case '<':
        if (text_.substr(pos_, 3) == "<=>") {
          pos_ += 3;
          current_ = {TokenKind::kIff, "<=>", 0, pos_};
          return;
        }
        Fail("unexpected '<'");
      case '-':
        if (text_.substr(pos_, 2) == "->") {
          pos_ += 2;
          current_ = {TokenKind::kImplies, "->", 0, pos_};
          return;
        }
        Fail("unexpected '-'");
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t end = pos_;
      while (end < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[end]))) {
        ++end;
      }
      std::string_view digits = text_.substr(pos_, end - pos_);
      std::uint64_t value = 0;
      if (numeric::ParseDecimal(digits, &value) !=
          numeric::DecimalError::kNone) {
        Fail("number too large");  // at the number's first digit
      }
      current_ = {TokenKind::kNumber, std::string(digits), value, pos_};
      pos_ = end;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '\'')) {
        ++pos_;
      }
      std::string word(text_.substr(start, pos_ - start));
      if (word == "forall") {
        current_ = {TokenKind::kForall, word, 0, start};
      } else if (word == "exists") {
        current_ = {TokenKind::kExists, word, 0, start};
      } else if (word == "true") {
        current_ = {TokenKind::kTrue, word, 0, start};
      } else if (word == "false") {
        current_ = {TokenKind::kFalse, word, 0, start};
      } else {
        current_ = {TokenKind::kIdent, std::move(word), 0, start};
      }
      return;
    }
    Fail("unexpected character '" + std::string(1, c) + "'");
  }

  std::string Error(const std::string& message) const {
    return "FO parse error at offset " + std::to_string(pos_) + ": " + message;
  }

  /// Throws SyntaxError at the lexer's current position.
  [[noreturn]] void Fail(const std::string& message) const {
    throw SyntaxError(Error(message), pos_);
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

class Parser {
 public:
  Parser(std::string_view text, Vocabulary* vocabulary, bool allow_declare)
      : lexer_(text), vocabulary_(vocabulary), allow_declare_(allow_declare) {}

  Formula ParseFormula() {
    Formula result = ParseIff();
    if (lexer_.current().kind != TokenKind::kEnd) {
      lexer_.Fail("trailing input after formula");
    }
    return result;
  }

 private:
  Formula ParseIff() {
    Formula left = ParseImplies();
    while (lexer_.current().kind == TokenKind::kIff) {
      lexer_.Advance();
      Formula right = ParseImplies();
      left = Iff(std::move(left), std::move(right));
    }
    return left;
  }

  Formula ParseImplies() {
    Formula left = ParseOr();
    if (lexer_.current().kind == TokenKind::kImplies) {
      lexer_.Advance();
      Formula right = ParseImplies();  // right associative
      return Implies(std::move(left), std::move(right));
    }
    return left;
  }

  Formula ParseOr() {
    std::vector<Formula> operands{ParseAnd()};
    while (lexer_.current().kind == TokenKind::kPipe) {
      lexer_.Advance();
      operands.push_back(ParseAnd());
    }
    return operands.size() == 1 ? operands[0] : Or(std::move(operands));
  }

  Formula ParseAnd() {
    std::vector<Formula> operands{ParseQuantified()};
    while (lexer_.current().kind == TokenKind::kAmp) {
      lexer_.Advance();
      operands.push_back(ParseQuantified());
    }
    return operands.size() == 1 ? operands[0] : And(std::move(operands));
  }

  Formula ParseQuantified() {
    TokenKind kind = lexer_.current().kind;
    if (kind != TokenKind::kForall && kind != TokenKind::kExists) {
      return ParseUnary();
    }
    lexer_.Advance();
    std::vector<std::string> variables;
    while (lexer_.current().kind == TokenKind::kIdent &&
           IsVariableName(lexer_.current().text)) {
      variables.push_back(lexer_.current().text);
      lexer_.Advance();
    }
    if (variables.empty()) {
      lexer_.Fail("quantifier requires at least one variable");
    }
    if (lexer_.current().kind == TokenKind::kDot) lexer_.Advance();
    Formula body = ParseQuantified();
    return kind == TokenKind::kForall ? Forall(variables, std::move(body))
                                      : Exists(variables, std::move(body));
  }

  Formula ParseUnary() {
    if (lexer_.current().kind == TokenKind::kBang) {
      lexer_.Advance();
      return Not(ParseUnary());
    }
    return ParsePrimary();
  }

  Formula ParsePrimary() {
    const Token& token = lexer_.current();
    switch (token.kind) {
      case TokenKind::kTrue:
        lexer_.Advance();
        return True();
      case TokenKind::kFalse:
        lexer_.Advance();
        return False();
      case TokenKind::kLParen: {
        lexer_.Advance();
        Formula inner = ParseIff();
        Expect(TokenKind::kRParen, ")");
        return inner;
      }
      case TokenKind::kForall:
      case TokenKind::kExists:
        return ParseQuantified();
      case TokenKind::kIdent:
        if (IsVariableName(token.text)) {
          return ParseEqualityFrom(ParseTerm());
        }
        return ParseAtom();
      case TokenKind::kNumber:
        return ParseEqualityFrom(ParseTerm());
      default:
        lexer_.Fail("expected a formula, found '" + token.text + "'");
    }
  }

  Formula ParseAtom() {
    std::string name = lexer_.current().text;
    lexer_.Advance();
    std::vector<Term> arguments;
    if (lexer_.current().kind == TokenKind::kLParen) {
      lexer_.Advance();
      arguments.push_back(ParseTerm());
      while (lexer_.current().kind == TokenKind::kComma) {
        lexer_.Advance();
        arguments.push_back(ParseTerm());
      }
      Expect(TokenKind::kRParen, ")");
    }
    RelationId id = ResolveRelation(name, arguments.size());
    return Atom(id, std::move(arguments));
  }

  Formula ParseEqualityFrom(Term left) {
    TokenKind kind = lexer_.current().kind;
    if (kind == TokenKind::kEquals) {
      lexer_.Advance();
      return Equals(std::move(left), ParseTerm());
    }
    if (kind == TokenKind::kNotEquals) {
      lexer_.Advance();
      return Not(Equals(std::move(left), ParseTerm()));
    }
    lexer_.Fail("expected '=' or '!=' after term");
  }

  Term ParseTerm() {
    const Token& token = lexer_.current();
    if (token.kind == TokenKind::kNumber) {
      Term t = Term::Const(token.number);
      lexer_.Advance();
      return t;
    }
    if (token.kind == TokenKind::kIdent && IsVariableName(token.text)) {
      Term t = Term::Var(token.text);
      lexer_.Advance();
      return t;
    }
    lexer_.Fail("expected a term (variable or constant)");
  }

  RelationId ResolveRelation(const std::string& name, std::size_t arity) {
    if (auto id = vocabulary_->Find(name)) {
      if (vocabulary_->arity(*id) != arity) {
        lexer_.Fail("relation " + name + " used with arity " +
                         std::to_string(arity) + " but declared with arity " +
                         std::to_string(vocabulary_->arity(*id)));
      }
      return *id;
    }
    if (!allow_declare_) {
      lexer_.Fail("unknown relation " + name);
    }
    return vocabulary_->AddRelation(name, arity);
  }

  static bool IsVariableName(const std::string& name) {
    return !name.empty() &&
           (std::islower(static_cast<unsigned char>(name[0])) ||
            name[0] == '_');
  }

  void Expect(TokenKind kind, const std::string& what) {
    if (lexer_.current().kind != kind) {
      lexer_.Fail("expected '" + what + "'");
    }
    lexer_.Advance();
  }

  Lexer lexer_;
  Vocabulary* vocabulary_;
  bool allow_declare_;
};

}  // namespace

Formula Parse(std::string_view text, Vocabulary* vocabulary) {
  return Parser(text, vocabulary, /*allow_declare=*/true).ParseFormula();
}

Formula ParseStrict(std::string_view text, const Vocabulary& vocabulary) {
  // The parser never mutates when allow_declare is false.
  return Parser(text, const_cast<Vocabulary*>(&vocabulary),
                /*allow_declare=*/false)
      .ParseFormula();
}

}  // namespace swfomc::logic
