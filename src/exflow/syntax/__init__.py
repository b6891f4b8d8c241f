"""Parsing of the supported Java subset into an analysis-ready tree."""

from .ast import (
    Block, CatchClause, CompilationUnit, CONSTRUCTOR_NAME,
    DocComment, Invocation, MethodDecl, NewInstance, Param, SourcePosition,
    ThrowStmt, TryStmt, TypeDecl, VariableRef,
)
from .errors import ParseError
from .javadoc import extract_doc_throws, extract_doc_throws_counted
from .parser import parse_compilation_unit

__all__ = [
    "Block", "CatchClause", "CompilationUnit", "CONSTRUCTOR_NAME",
    "DocComment", "Invocation", "MethodDecl", "NewInstance", "Param",
    "ParseError", "SourcePosition", "ThrowStmt", "TryStmt", "TypeDecl",
    "VariableRef", "extract_doc_throws", "extract_doc_throws_counted",
    "parse_compilation_unit",
]
