"""Recursive-descent parser for the CUDA-C subset.

Supported constructs (everything the bundled Rodinia-style benchmarks and the
MocCUDA kernels need):

* function definitions with ``__global__`` / ``__device__`` / ``__host__``
  qualifiers, ``void``/``int``/``float``/``double`` (pointer) types,
* local declarations (including ``__shared__`` arrays and ``dim3``),
* ``if``/``else``, ``for``, ``while``, ``do``/``while``, ``return``,
* expressions with the usual C precedence, compound assignment, ternary,
  casts, calls, array subscripts and ``threadIdx.x``-style member access,
* the ``kernel<<<grid, block>>>(args)`` launch statement, and
* ``#pragma omp parallel for`` annotations on ``for`` loops (used by the
  OpenMP reference versions of the benchmarks).
"""

from __future__ import annotations

from typing import List, Optional

from . import cast as ast
from .lexer import Token, int_value, tokenize


class ParseError(SyntaxError):
    pass


_TYPE_KEYWORDS = {"void", "int", "unsigned", "long", "float", "double", "bool", "char", "size_t"}
_QUALIFIERS = {"__global__", "__device__", "__host__", "static", "extern", "const",
               "__restrict__"}


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<cuda>") -> None:
        self.tokens = tokens
        self.filename = filename
        self.position = 0

    # -- token helpers -------------------------------------------------------
    def _error(self, token: Token, message: str) -> ParseError:
        """An error at ``token``'s ``file:line:col``."""
        return ParseError(f"{self.filename}:{token.line}:{token.column}: {message}")

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        self.position += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if not self._check(kind, text):
            expectation = text or kind
            raise self._error(token, f"expected {expectation!r}, found {token.text!r}")
        return self._advance()

    # -- program ---------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._check("eof"):
            if self._check("pragma"):
                self._advance()
                continue
            if self._check("keyword", "extern"):
                # extern "C" { ... } wrappers: skip the specifier
                self._advance()
                if self._check("string"):
                    self._advance()
                continue
            program.functions.append(self.parse_function())
        return program

    def _parse_qualifiers(self) -> set:
        qualifiers = set()
        while self._peek().kind == "keyword" and self._peek().text in _QUALIFIERS:
            qualifiers.add(self._advance().text)
        return qualifiers

    def _parse_type(self) -> ast.TypeSpec:
        names = []
        while self._peek().kind == "keyword" and self._peek().text in _TYPE_KEYWORDS:
            names.append(self._advance().text)
        if not names:
            token = self._peek()
            raise self._error(token, f"expected a type, found {token.text!r}")
        base = "int"
        if "void" in names:
            base = "void"
        elif "double" in names:
            base = "double"
        elif "float" in names:
            base = "float"
        elif "bool" in names or "char" in names:
            base = "bool" if "bool" in names else "int"
        pointer = 0
        while self._accept("op", "*"):
            pointer += 1
            while self._peek().kind == "keyword" and self._peek().text in ("const", "__restrict__"):
                self._advance()
        return ast.TypeSpec(base, pointer)

    def parse_function(self) -> ast.FuncDecl:
        qualifiers = self._parse_qualifiers()
        return_type = self._parse_type()
        name = self._expect("ident").text
        self._expect("op", "(")
        params: List[ast.Param] = []
        if not self._check("op", ")"):
            while True:
                self._parse_qualifiers()
                if self._check("keyword", "void") and self._peek(1).text == ")":
                    self._advance()
                    break
                param_type = self._parse_type()
                param_name = self._expect("ident").text
                # array parameter: T a[] or T a[N] decays to a pointer
                while self._accept("op", "["):
                    while not self._check("op", "]"):
                        self._advance()
                    self._expect("op", "]")
                    param_type = ast.TypeSpec(param_type.name, param_type.pointer + 1)
                params.append(ast.Param(param_type, param_name))
                if not self._accept("op", ","):
                    break
        self._expect("op", ")")
        body = None
        if self._check("op", "{"):
            body = self.parse_block()
        else:
            self._expect("op", ";")
        return ast.FuncDecl(name=name, return_type=return_type, params=params, body=body,
                            is_kernel="__global__" in qualifiers,
                            is_device="__device__" in qualifiers)

    # -- statements -----------------------------------------------------------------
    def parse_block(self) -> ast.Block:
        self._expect("op", "{")
        block = ast.Block()
        while not self._check("op", "}"):
            block.statements.append(self.parse_statement())
        self._expect("op", "}")
        return block

    def _statement_or_block(self) -> ast.Block:
        if self._check("op", "{"):
            return self.parse_block()
        return ast.Block([self.parse_statement()])

    def parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind == "pragma":
            pragma = self._advance().text
            statement = self.parse_statement()
            if "omp" in pragma and "parallel" in pragma and isinstance(statement, ast.ForStmt):
                statement.omp_parallel = True
            return statement
        if token.kind == "keyword":
            if token.text == "if":
                return self._parse_if()
            if token.text == "for":
                return self._parse_for()
            if token.text == "while":
                return self._parse_while()
            if token.text == "do":
                return self._parse_do_while()
            if token.text == "return":
                self._advance()
                value = None if self._check("op", ";") else self.parse_expression()
                self._expect("op", ";")
                return ast.ReturnStmt(value)
            if token.text == "dim3":
                return self._parse_dim3()
            if token.text in _TYPE_KEYWORDS or token.text in ("__shared__", "const", "static"):
                return self._parse_declaration()
        if token.kind == "op" and token.text == "{":
            return self.parse_block()
        if token.kind == "ident" and self._peek(1).kind == "op" and self._peek(1).text == "<<<":
            return self._parse_launch()
        expr = self.parse_expression()
        self._expect("op", ";")
        return ast.ExprStmt(expr)

    def _parse_declaration(self) -> ast.Stmt:
        shared = False
        while self._peek().kind == "keyword" and self._peek().text in ("__shared__", "const", "static"):
            if self._advance().text == "__shared__":
                shared = True
        decl_type = self._parse_type()
        name = self._expect("ident").text
        dims: List[int] = []
        while self._accept("op", "["):
            dims.append(int_value(self._expect("int").text))
            self._expect("op", "]")
        init = None
        if self._accept("op", "="):
            init = self.parse_expression()
        self._expect("op", ";")
        return ast.DeclStmt(decl_type, name, dims, init, shared)

    def _parse_dim3(self) -> ast.Dim3Decl:
        self._expect("keyword", "dim3")
        name = self._expect("ident").text
        values: List[ast.Expr] = [ast.IntLit(1), ast.IntLit(1), ast.IntLit(1)]
        if self._accept("op", "("):
            index = 0
            if not self._check("op", ")"):
                while True:
                    values[index] = self.parse_expression()
                    index += 1
                    if not self._accept("op", ","):
                        break
            self._expect("op", ")")
        self._expect("op", ";")
        return ast.Dim3Decl(name, (values[0], values[1], values[2]))

    def _parse_if(self) -> ast.IfStmt:
        self._expect("keyword", "if")
        self._expect("op", "(")
        condition = self.parse_expression()
        self._expect("op", ")")
        then_body = self._statement_or_block()
        else_body = None
        if self._accept("keyword", "else"):
            else_body = self._statement_or_block()
        return ast.IfStmt(condition, then_body, else_body)

    def _parse_for(self) -> ast.ForStmt:
        self._expect("keyword", "for")
        self._expect("op", "(")
        init = None
        if not self._check("op", ";"):
            if self._peek().kind == "keyword" and self._peek().text in _TYPE_KEYWORDS:
                init = self._parse_declaration()
            else:
                init = ast.ExprStmt(self.parse_expression())
                self._expect("op", ";")
        else:
            self._advance()
        condition = None
        if not self._check("op", ";"):
            condition = self.parse_expression()
        self._expect("op", ";")
        step = None
        if not self._check("op", ")"):
            step = ast.ExprStmt(self.parse_expression())
        self._expect("op", ")")
        body = self._statement_or_block()
        return ast.ForStmt(init, condition, step, body)

    def _parse_while(self) -> ast.WhileStmt:
        self._expect("keyword", "while")
        self._expect("op", "(")
        condition = self.parse_expression()
        self._expect("op", ")")
        body = self._statement_or_block()
        return ast.WhileStmt(condition, body)

    def _parse_do_while(self) -> ast.WhileStmt:
        self._expect("keyword", "do")
        body = self._statement_or_block()
        self._expect("keyword", "while")
        self._expect("op", "(")
        condition = self.parse_expression()
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.WhileStmt(condition, body, do_while=True)

    def _parse_launch(self) -> ast.LaunchStmt:
        kernel = self._expect("ident").text
        self._expect("op", "<<<")
        grid = [self.parse_expression()]
        block: List[ast.Expr] = []
        if self._accept("op", ","):
            block = [self.parse_expression()]
        self._expect("op", ">>>")
        self._expect("op", "(")
        args: List[ast.Expr] = []
        if not self._check("op", ")"):
            while True:
                args.append(self.parse_expression())
                if not self._accept("op", ","):
                    break
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.LaunchStmt(kernel, grid, block, args)

    # -- expressions (precedence climbing) ----------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        lhs = self._parse_ternary()
        token = self._peek()
        if token.kind == "op" and token.text in ("=", "+=", "-=", "*=", "/="):
            self._advance()
            rhs = self._parse_assignment()
            op = token.text[:-1] if token.text != "=" else ""
            return ast.Assign(lhs, rhs, op)
        return lhs

    def _parse_ternary(self) -> ast.Expr:
        condition = self._parse_binary(0)
        if self._accept("op", "?"):
            if_true = self.parse_expression()
            self._expect("op", ":")
            if_false = self._parse_ternary()
            return ast.Ternary(condition, if_true, if_false)
        return condition

    _PRECEDENCE = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._PRECEDENCE):
            return self._parse_unary()
        lhs = self._parse_binary(level + 1)
        while (self._peek().kind == "op" and self._peek().text in self._PRECEDENCE[level]
               and not (self._peek().text == ">" and self._peek(1).text == ">>")):
            op = self._advance().text
            rhs = self._parse_binary(level + 1)
            lhs = ast.BinOp(op, lhs, rhs)
        return lhs

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "op" and token.text in ("-", "!", "+", "*", "&"):
            self._advance()
            operand = self._parse_unary()
            if token.text == "+":
                return operand
            return ast.UnOp(token.text, operand)
        if token.kind == "op" and token.text in ("++", "--"):
            self._advance()
            target = self._parse_unary()
            delta = ast.IntLit(1)
            return ast.Assign(target, delta, "+" if token.text == "++" else "-")
        # cast: '(' type ')' expr
        if (token.kind == "op" and token.text == "("
                and self._peek(1).kind == "keyword" and self._peek(1).text in _TYPE_KEYWORDS):
            self._advance()
            cast_type = self._parse_type()
            self._expect("op", ")")
            return ast.Cast(cast_type, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._check("op", "["):
                indices = []
                while self._accept("op", "["):
                    indices.append(self.parse_expression())
                    self._expect("op", "]")
                if isinstance(expr, ast.Index):
                    expr.indices.extend(indices)
                else:
                    expr = ast.Index(expr, indices)
                continue
            if self._check("op", "++") or self._check("op", "--"):
                op = self._advance().text
                expr = ast.Assign(expr, ast.IntLit(1), "+" if op == "++" else "-")
                continue
            break
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "int":
            self._advance()
            return ast.IntLit(int_value(token.text))
        if token.kind == "float":
            self._advance()
            return ast.FloatLit(float(token.text.rstrip("fF")))
        if token.kind == "keyword" and token.text in ("true", "false"):
            self._advance()
            return ast.IntLit(1 if token.text == "true" else 0)
        if token.kind == "ident":
            name = self._advance().text
            if self._accept("op", "."):
                field = self._expect("ident").text
                return ast.Member(name, field)
            if self._check("op", "("):
                self._advance()
                args: List[ast.Expr] = []
                if not self._check("op", ")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self._accept("op", ","):
                            break
                self._expect("op", ")")
                return ast.Call(name, args)
            return ast.Ident(name)
        if token.kind == "op" and token.text == "(":
            self._advance()
            expr = self.parse_expression()
            self._expect("op", ")")
            return expr
        raise self._error(token, f"unexpected token {token.text!r}")


def parse(source: str, filename: str = "<cuda>") -> ast.Program:
    """Tokenize and parse a CUDA-C translation unit."""
    return Parser(tokenize(source, filename), filename).parse_program()
