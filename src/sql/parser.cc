#include "sql/parser.h"

#include <algorithm>

#include "common/string_util.h"
#include "sql/lexer.h"
#include "types/date_util.h"
#include "types/value.h"

namespace vdm {

namespace {

class Parser {
 public:
  Parser(std::string sql, std::vector<Token> tokens)
      : sql_(std::move(sql)), tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatementTop() {
    VDM_ASSIGN_OR_RETURN(Statement stmt, ParseOneStatement());
    ConsumeSymbol(";");
    if (!AtEnd()) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

  Result<ExprRef> ParseExpressionTop() {
    VDM_ASSIGN_OR_RETURN(ExprRef expr, ParseExpr());
    if (!AtEnd()) {
      return Error<ExprRef>("unexpected trailing input in expression");
    }
    return expr;
  }

 private:
  // --- token helpers -------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t idx = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[idx];
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool PeekKeyword(const char* keyword, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdentifier &&
           EqualsIgnoreCase(t.text, keyword);
  }
  bool ConsumeKeyword(const char* keyword) {
    if (PeekKeyword(keyword)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* keyword) {
    if (!ConsumeKeyword(keyword)) {
      return Error(std::string("expected keyword ") + keyword).status();
    }
    return Status::OK();
  }
  bool PeekSymbol(const char* symbol, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kSymbol && t.text == symbol;
  }
  bool ConsumeSymbol(const char* symbol) {
    if (PeekSymbol(symbol)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const char* symbol) {
    if (!ConsumeSymbol(symbol)) {
      return Error(std::string("expected '") + symbol + "'").status();
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected identifier").status();
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  template <typename T = Statement>
  Result<T> Error(const std::string& message) const {
    size_t offset = Peek().offset;
    size_t line = 1;
    for (size_t i = 0; i < offset && i < sql_.size(); ++i) {
      if (sql_[i] == '\n') ++line;
    }
    return Status::ParseError(StrFormat("%s at line %zu (near '%s')",
                                        message.c_str(), line,
                                        Peek().text.c_str()));
  }

  // --- statements ----------------------------------------------------------

  Result<Statement> ParseOneStatement() {
    if (PeekKeyword("create")) return ParseCreate();
    if (PeekKeyword("insert")) return ParseInsert();
    if (PeekKeyword("update")) return ParseUpdate();
    if (PeekKeyword("delete")) return ParseDelete();
    if (PeekKeyword("begin") || PeekKeyword("commit") ||
        PeekKeyword("rollback") || PeekKeyword("abort")) {
      return ParseTxnControl();
    }
    if (PeekKeyword("select") || PeekSymbol("(")) {
      Statement stmt;
      stmt.kind = Statement::Kind::kSelect;
      VDM_ASSIGN_OR_RETURN(SelectStmt select, ParseSelect());
      stmt.select = std::make_shared<SelectStmt>(std::move(select));
      return stmt;
    }
    return Error("expected SELECT, INSERT, UPDATE, DELETE, or CREATE");
  }

  Result<Statement> ParseTxnControl() {
    Statement stmt;
    if (ConsumeKeyword("begin")) {
      ConsumeKeyword("transaction");  // optional noise word
      stmt.kind = Statement::Kind::kBegin;
      return stmt;
    }
    if (ConsumeKeyword("commit")) {
      stmt.kind = Statement::Kind::kCommit;
      return stmt;
    }
    if (ConsumeKeyword("rollback") || ConsumeKeyword("abort")) {
      stmt.kind = Statement::Kind::kRollback;
      return stmt;
    }
    return Error("expected BEGIN, COMMIT, or ROLLBACK");
  }

  Result<Statement> ParseUpdate() {
    VDM_RETURN_NOT_OK(ExpectKeyword("update"));
    auto update = std::make_shared<UpdateStmt>();
    VDM_ASSIGN_OR_RETURN(update->table, ExpectIdentifier());
    VDM_RETURN_NOT_OK(ExpectKeyword("set"));
    do {
      VDM_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier());
      VDM_RETURN_NOT_OK(ExpectSymbol("="));
      VDM_ASSIGN_OR_RETURN(ExprRef value, ParseExpr());
      update->sets.emplace_back(std::move(column), std::move(value));
    } while (ConsumeSymbol(","));
    if (ConsumeKeyword("where")) {
      VDM_ASSIGN_OR_RETURN(update->where, ParseExpr());
    }
    Statement stmt;
    stmt.kind = Statement::Kind::kUpdate;
    stmt.update = std::move(update);
    return stmt;
  }

  Result<Statement> ParseDelete() {
    VDM_RETURN_NOT_OK(ExpectKeyword("delete"));
    VDM_RETURN_NOT_OK(ExpectKeyword("from"));
    auto del = std::make_shared<DeleteStmt>();
    VDM_ASSIGN_OR_RETURN(del->table, ExpectIdentifier());
    if (ConsumeKeyword("where")) {
      VDM_ASSIGN_OR_RETURN(del->where, ParseExpr());
    }
    Statement stmt;
    stmt.kind = Statement::Kind::kDelete;
    stmt.del = std::move(del);
    return stmt;
  }

  Result<Statement> ParseInsert() {
    VDM_RETURN_NOT_OK(ExpectKeyword("insert"));
    VDM_RETURN_NOT_OK(ExpectKeyword("into"));
    auto insert = std::make_shared<InsertStmt>();
    VDM_ASSIGN_OR_RETURN(insert->table, ExpectIdentifier());
    if (PeekSymbol("(")) {
      VDM_ASSIGN_OR_RETURN(insert->columns, ParseColumnNameList());
    }
    VDM_RETURN_NOT_OK(ExpectKeyword("values"));
    do {
      VDM_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprRef> row;
      do {
        VDM_ASSIGN_OR_RETURN(ExprRef value, ParseExpr());
        row.push_back(std::move(value));
      } while (ConsumeSymbol(","));
      VDM_RETURN_NOT_OK(ExpectSymbol(")"));
      insert->rows.push_back(std::move(row));
    } while (ConsumeSymbol(","));
    Statement stmt;
    stmt.kind = Statement::Kind::kInsert;
    stmt.insert = std::move(insert);
    return stmt;
  }

  Result<Statement> ParseCreate() {
    VDM_RETURN_NOT_OK(ExpectKeyword("create"));
    bool or_replace = false;
    if (ConsumeKeyword("or")) {
      VDM_RETURN_NOT_OK(ExpectKeyword("replace"));
      or_replace = true;
    }
    if (ConsumeKeyword("table")) {
      if (or_replace) return Error("CREATE OR REPLACE TABLE not supported");
      return ParseCreateTable();
    }
    if (ConsumeKeyword("view")) return ParseCreateView(or_replace);
    return Error("expected TABLE or VIEW after CREATE");
  }

  Result<DataType> ParseType() {
    VDM_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    std::string lower = ToLower(name);
    if (lower == "int" || lower == "integer" || lower == "bigint") {
      return DataType::Int64();
    }
    if (lower == "double" || lower == "float" || lower == "real") {
      return DataType::Double();
    }
    if (lower == "bool" || lower == "boolean") return DataType::Bool();
    if (lower == "date") return DataType::Date();
    if (lower == "varchar" || lower == "text" || lower == "string" ||
        lower == "char" || lower == "nvarchar") {
      if (ConsumeSymbol("(")) {
        if (Peek().kind != TokenKind::kInteger) {
          return Error<DataType>("expected length");
        }
        Advance();
        VDM_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      return DataType::String();
    }
    if (lower == "decimal" || lower == "numeric") {
      uint8_t scale = 0;
      if (ConsumeSymbol("(")) {
        if (Peek().kind != TokenKind::kInteger) {
          return Error<DataType>("expected precision");
        }
        Advance();
        if (ConsumeSymbol(",")) {
          if (Peek().kind != TokenKind::kInteger) {
            return Error<DataType>("expected scale");
          }
          scale = static_cast<uint8_t>(std::stoll(Peek().text));
          Advance();
        }
        VDM_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      return DataType::Decimal(scale);
    }
    return Error<DataType>("unknown type " + name);
  }

  Result<std::vector<std::string>> ParseColumnNameList() {
    VDM_RETURN_NOT_OK(ExpectSymbol("("));
    std::vector<std::string> columns;
    do {
      VDM_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      columns.push_back(std::move(name));
    } while (ConsumeSymbol(","));
    VDM_RETURN_NOT_OK(ExpectSymbol(")"));
    return columns;
  }

  Result<Statement> ParseCreateTable() {
    VDM_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    TableSchema schema(name);
    VDM_RETURN_NOT_OK(ExpectSymbol("("));
    std::vector<std::string> pk;
    struct PendingUnique {
      std::vector<std::string> columns;
      bool enforced;
    };
    std::vector<PendingUnique> uniques;
    std::vector<ForeignKeyDef> fks;
    do {
      if (PeekKeyword("primary")) {
        Advance();
        VDM_RETURN_NOT_OK(ExpectKeyword("key"));
        VDM_ASSIGN_OR_RETURN(pk, ParseColumnNameList());
        continue;
      }
      if (PeekKeyword("unique")) {
        Advance();
        PendingUnique u;
        VDM_ASSIGN_OR_RETURN(u.columns, ParseColumnNameList());
        u.enforced = true;
        if (ConsumeKeyword("not")) {
          VDM_RETURN_NOT_OK(ExpectKeyword("enforced"));
          u.enforced = false;
        }
        uniques.push_back(std::move(u));
        continue;
      }
      if (PeekKeyword("foreign")) {
        Advance();
        VDM_RETURN_NOT_OK(ExpectKeyword("key"));
        ForeignKeyDef fk;
        VDM_ASSIGN_OR_RETURN(fk.columns, ParseColumnNameList());
        VDM_RETURN_NOT_OK(ExpectKeyword("references"));
        VDM_ASSIGN_OR_RETURN(fk.referenced_table, ExpectIdentifier());
        VDM_ASSIGN_OR_RETURN(fk.referenced_columns, ParseColumnNameList());
        fks.push_back(std::move(fk));
        continue;
      }
      // Column definition.
      VDM_ASSIGN_OR_RETURN(std::string column_name, ExpectIdentifier());
      VDM_ASSIGN_OR_RETURN(DataType type, ParseType());
      bool nullable = true;
      bool inline_pk = false;
      bool inline_unique = false;
      while (true) {
        if (ConsumeKeyword("not")) {
          VDM_RETURN_NOT_OK(ExpectKeyword("null"));
          nullable = false;
          continue;
        }
        if (PeekKeyword("primary")) {
          Advance();
          VDM_RETURN_NOT_OK(ExpectKeyword("key"));
          inline_pk = true;
          continue;
        }
        if (ConsumeKeyword("unique")) {
          inline_unique = true;
          continue;
        }
        break;
      }
      schema.AddColumn(column_name, type, nullable);
      if (inline_pk) pk = {column_name};
      if (inline_unique) uniques.push_back({{column_name}, true});
    } while (ConsumeSymbol(","));
    VDM_RETURN_NOT_OK(ExpectSymbol(")"));
    if (!pk.empty()) schema.SetPrimaryKey(std::move(pk));
    for (PendingUnique& u : uniques) {
      if (u.enforced) {
        schema.AddUniqueKey(std::move(u.columns));
      } else {
        schema.AddDeclaredUniqueKey(std::move(u.columns));
      }
    }
    for (ForeignKeyDef& fk : fks) {
      schema.AddForeignKey(std::move(fk.columns),
                           std::move(fk.referenced_table),
                           std::move(fk.referenced_columns));
    }
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateTable;
    stmt.create_table = std::make_shared<CreateTableStmt>();
    stmt.create_table->schema = std::move(schema);
    return stmt;
  }

  Result<Statement> ParseCreateView(bool or_replace) {
    VDM_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    VDM_RETURN_NOT_OK(ExpectKeyword("as"));
    size_t select_start = Peek().offset;
    VDM_ASSIGN_OR_RETURN(SelectStmt select, ParseSelect());
    size_t select_end = Peek().offset;

    auto view = std::make_shared<CreateViewStmt>();
    view->name = std::move(name);
    view->or_replace = or_replace;
    view->select = std::make_shared<SelectStmt>(std::move(select));
    view->select_sql =
        sql_.substr(select_start, select_end - select_start);

    while (ConsumeKeyword("with")) {
      if (ConsumeKeyword("expression")) {
        VDM_RETURN_NOT_OK(ExpectKeyword("macros"));
        VDM_RETURN_NOT_OK(ExpectSymbol("("));
        do {
          size_t body_start = Peek().offset;
          VDM_ASSIGN_OR_RETURN(ExprRef body, ParseExpr());
          size_t body_end = Peek().offset;
          (void)body;  // validated for syntax; stored as text
          VDM_RETURN_NOT_OK(ExpectKeyword("as"));
          VDM_ASSIGN_OR_RETURN(std::string macro_name, ExpectIdentifier());
          ExpressionMacro macro;
          macro.name = std::move(macro_name);
          macro.body_sql = sql_.substr(body_start, body_end - body_start);
          view->macros.push_back(std::move(macro));
        } while (ConsumeSymbol(","));
        VDM_RETURN_NOT_OK(ExpectSymbol(")"));
        continue;
      }
      if (ConsumeKeyword("associations")) {
        // with associations (<name> to <target> on <cond>, ...)
        VDM_RETURN_NOT_OK(ExpectSymbol("("));
        do {
          AssociationDef assoc;
          VDM_ASSIGN_OR_RETURN(assoc.name, ExpectIdentifier());
          VDM_RETURN_NOT_OK(ExpectKeyword("to"));
          VDM_ASSIGN_OR_RETURN(assoc.target, ExpectIdentifier());
          VDM_RETURN_NOT_OK(ExpectKeyword("on"));
          size_t cond_start = Peek().offset;
          VDM_ASSIGN_OR_RETURN(ExprRef cond, ParseExpr());
          size_t cond_end = Peek().offset;
          (void)cond;  // validated for syntax; stored as text
          assoc.condition_sql =
              sql_.substr(cond_start, cond_end - cond_start);
          view->associations.push_back(std::move(assoc));
        } while (ConsumeSymbol(","));
        VDM_RETURN_NOT_OK(ExpectSymbol(")"));
        continue;
      }
      return Error("expected EXPRESSION MACROS or ASSOCIATIONS after WITH");
    }

    Statement stmt;
    stmt.kind = Statement::Kind::kCreateView;
    stmt.create_view = std::move(view);
    return stmt;
  }

  // --- SELECT --------------------------------------------------------------

  Result<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    VDM_ASSIGN_OR_RETURN(SelectCore core, ParseSelectCore());
    stmt.cores.push_back(std::move(core));
    while (PeekKeyword("union")) {
      Advance();
      VDM_RETURN_NOT_OK(ExpectKeyword("all"));
      VDM_ASSIGN_OR_RETURN(SelectCore next, ParseSelectCore());
      stmt.cores.push_back(std::move(next));
    }
    if (ConsumeKeyword("order")) {
      VDM_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        OrderItem item;
        VDM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("desc")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("asc");
        }
        stmt.order_by.push_back(std::move(item));
      } while (ConsumeSymbol(","));
    }
    if (ConsumeKeyword("limit")) {
      if (Peek().kind != TokenKind::kInteger) {
        return Error<SelectStmt>("expected integer after LIMIT");
      }
      stmt.limit = std::stoll(Peek().text);
      Advance();
      if (ConsumeKeyword("offset")) {
        if (Peek().kind != TokenKind::kInteger) {
          return Error<SelectStmt>("expected integer after OFFSET");
        }
        stmt.offset = std::stoll(Peek().text);
        Advance();
      }
    }
    return stmt;
  }

  Result<SelectCore> ParseSelectCore() {
    // Parenthesized core: "( select ... )" — allowed as a UNION ALL child.
    if (ConsumeSymbol("(")) {
      VDM_ASSIGN_OR_RETURN(SelectCore core, ParseSelectCore());
      VDM_RETURN_NOT_OK(ExpectSymbol(")"));
      return core;
    }
    SelectCore core;
    VDM_RETURN_NOT_OK(ExpectKeyword("select"));
    core.distinct = ConsumeKeyword("distinct");
    do {
      SelectItem item;
      if (PeekSymbol("*")) {
        Advance();
        item.star = true;
        core.items.push_back(std::move(item));
        continue;
      }
      VDM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (ConsumeKeyword("as")) {
        VDM_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      } else if (Peek().kind == TokenKind::kIdentifier &&
                 !IsClauseKeyword(Peek().text)) {
        item.alias = Peek().text;
        Advance();
      }
      core.items.push_back(std::move(item));
    } while (ConsumeSymbol(","));

    if (ConsumeKeyword("from")) {
      core.has_from = true;
      VDM_ASSIGN_OR_RETURN(core.from, ParseTableRef());
      while (true) {
        std::optional<JoinClause> join;
        VDM_ASSIGN_OR_RETURN(join, TryParseJoin());
        if (!join.has_value()) break;
        core.joins.push_back(std::move(*join));
      }
    }
    if (ConsumeKeyword("where")) {
      VDM_ASSIGN_OR_RETURN(core.where, ParseExpr());
    }
    if (ConsumeKeyword("group")) {
      VDM_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        VDM_ASSIGN_OR_RETURN(ExprRef expr, ParseExpr());
        core.group_by.push_back(std::move(expr));
      } while (ConsumeSymbol(","));
    }
    if (ConsumeKeyword("having")) {
      VDM_ASSIGN_OR_RETURN(core.having, ParseExpr());
    }
    return core;
  }

  static bool IsClauseKeyword(const std::string& word) {
    static const char* kKeywords[] = {
        "from",  "where", "group", "having", "order", "limit",
        "union", "join",  "left",  "inner",  "on",    "as",
        "offset", "with", "many",  "one",    "case",  "cross"};
    for (const char* kw : kKeywords) {
      if (EqualsIgnoreCase(word, kw)) return true;
    }
    return false;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (ConsumeSymbol("(")) {
      ref.kind = TableRef::Kind::kSubquery;
      VDM_ASSIGN_OR_RETURN(SelectStmt sub, ParseSelect());
      ref.subquery = std::make_shared<SelectStmt>(std::move(sub));
      VDM_RETURN_NOT_OK(ExpectSymbol(")"));
    } else {
      VDM_ASSIGN_OR_RETURN(ref.name, ExpectIdentifier());
    }
    if (ConsumeKeyword("as")) {
      VDM_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().kind == TokenKind::kIdentifier &&
               !IsClauseKeyword(Peek().text)) {
      ref.alias = Peek().text;
      Advance();
    }
    if (ref.kind == TableRef::Kind::kSubquery && ref.alias.empty()) {
      return Error<TableRef>("subquery in FROM requires an alias");
    }
    return ref;
  }

  /// Parses an optional join clause:
  ///   [LEFT [OUTER]] [MANY TO [EXACT] ONE | ONE TO ONE] [CASE] JOIN ... ON e
  Result<std::optional<JoinClause>> TryParseJoin() {
    JoinClause join;
    size_t start = pos_;
    bool saw_any = false;
    if (ConsumeKeyword("left")) {
      ConsumeKeyword("outer");
      join.join_type = JoinType::kLeftOuter;
      saw_any = true;
    } else if (ConsumeKeyword("inner")) {
      join.join_type = JoinType::kInner;
      saw_any = true;
    }
    if (PeekKeyword("many") || PeekKeyword("one")) {
      bool one_to_one = PeekKeyword("one");
      Advance();  // many | one
      if (!ConsumeKeyword("to")) {
        pos_ = start;
        return std::optional<JoinClause>{};
      }
      bool exact = ConsumeKeyword("exact");
      VDM_RETURN_NOT_OK(ExpectKeyword("one"));
      // "many to one" declares 0..1 matches; "many to exact one" and
      // "one to one" declare 1..1 (§7.3).
      join.cardinality = (exact || one_to_one)
                             ? DeclaredCardinality::kExactOne
                             : DeclaredCardinality::kAtMostOne;
      saw_any = true;
    }
    if (PeekKeyword("case") && PeekKeyword("join", 1)) {
      Advance();
      join.case_join = true;
      saw_any = true;
    }
    if (!PeekKeyword("join")) {
      if (saw_any) {
        pos_ = start;
      }
      return std::optional<JoinClause>{};
    }
    Advance();  // join
    VDM_ASSIGN_OR_RETURN(join.ref, ParseTableRef());
    VDM_RETURN_NOT_OK(ExpectKeyword("on"));
    VDM_ASSIGN_OR_RETURN(join.condition, ParseExpr());
    return std::optional<JoinClause>(std::move(join));
  }

  // --- expressions ---------------------------------------------------------

  Result<ExprRef> ParseExpr() { return ParseOr(); }

  Result<ExprRef> ParseOr() {
    VDM_ASSIGN_OR_RETURN(ExprRef left, ParseAnd());
    while (ConsumeKeyword("or")) {
      VDM_ASSIGN_OR_RETURN(ExprRef right, ParseAnd());
      left = Bin(BinaryOpKind::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprRef> ParseAnd() {
    VDM_ASSIGN_OR_RETURN(ExprRef left, ParseNot());
    while (PeekKeyword("and")) {
      Advance();
      VDM_ASSIGN_OR_RETURN(ExprRef right, ParseNot());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprRef> ParseNot() {
    if (ConsumeKeyword("not")) {
      VDM_ASSIGN_OR_RETURN(ExprRef operand, ParseNot());
      return Not(std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprRef> ParseComparison() {
    VDM_ASSIGN_OR_RETURN(ExprRef left, ParseAdditive());
    if (PeekKeyword("is")) {
      Advance();
      bool negated = ConsumeKeyword("not");
      VDM_RETURN_NOT_OK(ExpectKeyword("null"));
      return ExprRef(std::make_shared<IsNullExpr>(std::move(left), negated));
    }
    struct OpMap {
      const char* symbol;
      BinaryOpKind op;
    };
    static const OpMap kOps[] = {
        {"=", BinaryOpKind::kEq},        {"<>", BinaryOpKind::kNotEq},
        {"!=", BinaryOpKind::kNotEq},    {"<=", BinaryOpKind::kLessEq},
        {">=", BinaryOpKind::kGreaterEq}, {"<", BinaryOpKind::kLess},
        {">", BinaryOpKind::kGreater},
    };
    for (const OpMap& entry : kOps) {
      if (PeekSymbol(entry.symbol)) {
        Advance();
        VDM_ASSIGN_OR_RETURN(ExprRef right, ParseAdditive());
        return Bin(entry.op, std::move(left), std::move(right));
      }
    }
    // x [NOT] LIKE pattern desugars to [NOT] like(x, pattern); the %/_
    // wildcard semantics live in EvalFunction (and thus cover the
    // reference interpreter too).
    {
      bool negated = false;
      if (PeekKeyword("not")) {
        const size_t save = pos_;
        Advance();
        if (PeekKeyword("like")) {
          negated = true;
        } else {
          pos_ = save;
        }
      }
      if (PeekKeyword("like")) {
        Advance();
        VDM_ASSIGN_OR_RETURN(ExprRef pattern, ParseAdditive());
        ExprRef call = Func("like", {std::move(left), std::move(pattern)});
        return negated ? Not(std::move(call)) : std::move(call);
      }
    }
    if (PeekKeyword("between")) {
      Advance();
      VDM_ASSIGN_OR_RETURN(ExprRef low, ParseAdditive());
      VDM_RETURN_NOT_OK(ExpectKeyword("and"));
      VDM_ASSIGN_OR_RETURN(ExprRef high, ParseAdditive());
      return And(Bin(BinaryOpKind::kGreaterEq, left, std::move(low)),
                 Bin(BinaryOpKind::kLessEq, left, std::move(high)));
    }
    if (PeekKeyword("in")) {
      Advance();
      VDM_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprRef> options;
      do {
        VDM_ASSIGN_OR_RETURN(ExprRef option, ParseExpr());
        options.push_back(std::move(option));
      } while (ConsumeSymbol(","));
      VDM_RETURN_NOT_OK(ExpectSymbol(")"));
      ExprRef result;
      for (ExprRef& option : options) {
        ExprRef eq = Eq(left, std::move(option));
        result = result ? Bin(BinaryOpKind::kOr, std::move(result),
                              std::move(eq))
                        : std::move(eq);
      }
      return result;
    }
    return left;
  }

  Result<ExprRef> ParseAdditive() {
    VDM_ASSIGN_OR_RETURN(ExprRef left, ParseMultiplicative());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      BinaryOpKind op =
          PeekSymbol("+") ? BinaryOpKind::kAdd : BinaryOpKind::kSub;
      Advance();
      VDM_ASSIGN_OR_RETURN(ExprRef right, ParseMultiplicative());
      left = Bin(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprRef> ParseMultiplicative() {
    VDM_ASSIGN_OR_RETURN(ExprRef left, ParseUnary());
    while (PeekSymbol("*") || PeekSymbol("/")) {
      BinaryOpKind op =
          PeekSymbol("*") ? BinaryOpKind::kMul : BinaryOpKind::kDiv;
      Advance();
      VDM_ASSIGN_OR_RETURN(ExprRef right, ParseUnary());
      left = Bin(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprRef> ParseUnary() {
    if (ConsumeSymbol("-")) {
      VDM_ASSIGN_OR_RETURN(ExprRef operand, ParseUnary());
      return ExprRef(std::make_shared<UnaryExpr>(UnaryOpKind::kNegate,
                                                 std::move(operand)));
    }
    return ParsePrimary();
  }

  Result<ExprRef> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kInteger) {
      int64_t v = std::stoll(t.text);
      Advance();
      return LitInt(v);
    }
    if (t.kind == TokenKind::kDecimal) {
      // Parse as an exact decimal literal: scale = fractional digits.
      size_t dot = t.text.find('.');
      std::string digits = t.text.substr(0, dot) + t.text.substr(dot + 1);
      uint8_t scale = static_cast<uint8_t>(t.text.size() - dot - 1);
      int64_t unscaled = std::stoll(digits);
      Advance();
      return Lit(Value::Decimal(unscaled, scale));
    }
    if (t.kind == TokenKind::kString) {
      std::string v = t.text;
      Advance();
      return LitStr(std::move(v));
    }
    if (t.kind == TokenKind::kParam) {
      // "<slot>:<typecode>" with typecode i | s | d<scale> (see
      // sql/parameterize.cc, which manufactures these tokens).
      size_t colon = t.text.find(':');
      if (colon == std::string::npos || colon + 1 >= t.text.size()) {
        return Error<ExprRef>("malformed parameter token");
      }
      int slot = static_cast<int>(std::stoll(t.text.substr(0, colon)));
      char code = t.text[colon + 1];
      DataType type;
      if (code == 'i') {
        type = DataType::Int64();
      } else if (code == 's') {
        type = DataType::String();
      } else if (code == 'd') {
        type = DataType::Decimal(static_cast<uint8_t>(
            std::stoll(t.text.substr(colon + 2))));
      } else {
        return Error<ExprRef>("malformed parameter token");
      }
      Advance();
      return ExprRef(std::make_shared<ParamExpr>(slot, type));
    }
    if (ConsumeSymbol("(")) {
      VDM_ASSIGN_OR_RETURN(ExprRef inner, ParseExpr());
      VDM_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (t.kind != TokenKind::kIdentifier) {
      return Error<ExprRef>("expected expression");
    }
    // Clause keywords are reserved in expression position; otherwise
    // "select from t" would silently parse a column named "from".
    static const char* kReserved[] = {"from",  "where", "group",
                                      "having", "order", "limit",
                                      "union", "join",  "on"};
    for (const char* word : kReserved) {
      if (EqualsIgnoreCase(t.text, word)) {
        return Error<ExprRef>("expected expression");
      }
    }
    // CASE WHEN ... THEN ... [ELSE ...] END
    if (EqualsIgnoreCase(t.text, "case") && !PeekKeyword("join", 1)) {
      Advance();
      std::vector<ExprRef> children;
      while (ConsumeKeyword("when")) {
        VDM_ASSIGN_OR_RETURN(ExprRef when, ParseExpr());
        VDM_RETURN_NOT_OK(ExpectKeyword("then"));
        VDM_ASSIGN_OR_RETURN(ExprRef then, ParseExpr());
        children.push_back(std::move(when));
        children.push_back(std::move(then));
      }
      ExprRef else_expr = Lit(Value::Null());
      if (ConsumeKeyword("else")) {
        VDM_ASSIGN_OR_RETURN(else_expr, ParseExpr());
      }
      VDM_RETURN_NOT_OK(ExpectKeyword("end"));
      children.push_back(std::move(else_expr));
      return ExprRef(std::make_shared<CaseExpr>(std::move(children)));
    }
    if (EqualsIgnoreCase(t.text, "null")) {
      Advance();
      return Lit(Value::Null());
    }
    // DATE 'YYYY-MM-DD' literal.
    if (EqualsIgnoreCase(t.text, "date") &&
        Peek(1).kind == TokenKind::kString) {
      Advance();
      std::optional<int64_t> days = ParseDate(Peek().text);
      if (!days.has_value()) {
        return Error<ExprRef>("malformed date literal '" + Peek().text +
                              "'");
      }
      Advance();
      return Lit(Value::Date(*days));
    }
    if (EqualsIgnoreCase(t.text, "true")) {
      Advance();
      return LitBool(true);
    }
    if (EqualsIgnoreCase(t.text, "false")) {
      Advance();
      return LitBool(false);
    }

    std::string name = t.text;
    Advance();
    // Function call?
    if (PeekSymbol("(")) {
      Advance();
      std::string lower = ToLower(name);
      // Aggregates.
      if (lower == "count" || lower == "sum" || lower == "min" ||
          lower == "max" || lower == "avg") {
        if (lower == "count" && ConsumeSymbol("*")) {
          VDM_RETURN_NOT_OK(ExpectSymbol(")"));
          return CountStar();
        }
        bool distinct = ConsumeKeyword("distinct");
        if (distinct && (lower == "sum" || lower == "avg")) {
          // DISTINCT is supported on count (and vacuous on min/max).
          return Status::InvalidArgument(lower +
                                         "(distinct ...) is not supported");
        }
        VDM_ASSIGN_OR_RETURN(ExprRef arg, ParseExpr());
        VDM_RETURN_NOT_OK(ExpectSymbol(")"));
        AggKind kind = lower == "count"  ? AggKind::kCount
                       : lower == "sum"  ? AggKind::kSum
                       : lower == "min"  ? AggKind::kMin
                       : lower == "max"  ? AggKind::kMax
                                         : AggKind::kAvg;
        return ExprRef(std::make_shared<AggregateExpr>(kind, std::move(arg),
                                                       distinct));
      }
      if (lower == "allow_precision_loss") {
        VDM_ASSIGN_OR_RETURN(ExprRef arg, ParseExpr());
        VDM_RETURN_NOT_OK(ExpectSymbol(")"));
        // Mark every aggregate inside as precision-loss-tolerant (§7.1).
        return TransformExpr(arg, [](const ExprRef& node) -> ExprRef {
          if (node->kind() != ExprKind::kAggregate) return nullptr;
          const auto& agg = static_cast<const AggregateExpr&>(*node);
          if (agg.allow_precision_loss()) return nullptr;
          return std::make_shared<AggregateExpr>(
              agg.agg(), agg.has_arg() ? agg.arg() : nullptr, agg.distinct(),
              /*allow_precision_loss=*/true);
        });
      }
      if (lower == "expression_macro") {
        VDM_ASSIGN_OR_RETURN(std::string macro_name, ExpectIdentifier());
        VDM_RETURN_NOT_OK(ExpectSymbol(")"));
        return ExprRef(std::make_shared<MacroRefExpr>(std::move(macro_name)));
      }
      std::vector<ExprRef> args;
      if (!PeekSymbol(")")) {
        do {
          VDM_ASSIGN_OR_RETURN(ExprRef arg, ParseExpr());
          args.push_back(std::move(arg));
        } while (ConsumeSymbol(","));
      }
      VDM_RETURN_NOT_OK(ExpectSymbol(")"));
      return Func(lower, std::move(args));
    }
    // Qualified column reference; additional segments form a CDS path
    // expression (alias.association.column, §2.3).
    while (ConsumeSymbol(".")) {
      VDM_ASSIGN_OR_RETURN(std::string segment, ExpectIdentifier());
      name += "." + segment;
    }
    return Col(std::move(name));
  }

  std::string sql_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& sql) {
  VDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseStatementTop();
}

Result<Statement> ParseTokenStream(std::string sql,
                                   std::vector<Token> tokens) {
  Parser parser(std::move(sql), std::move(tokens));
  return parser.ParseStatementTop();
}

Result<ExprRef> ParseExpression(const std::string& sql) {
  VDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseExpressionTop();
}

}  // namespace vdm
