"""Trace substrate: log records, parsers, cleaning, and characterization."""

from .records import LogRecord, Trace
from .intern import (
    COMPILE_CACHE,
    ChunkedCompiledTrace,
    CompileCache,
    SymbolTable,
    TraceChunk,
    compile_trace,
)
from .chunked import (
    ChunkFileError,
    ChunkWriter,
    open_chunked_trace,
    verify_chunk_file,
    write_chunked_trace,
)
from .common_log import (
    LogParseError,
    format_record,
    parse_line,
    parse_lines,
    read_log,
    write_log,
)
from .clean import CleaningConfig, CleaningReport, clean_trace
from .pseudo_proxy import PseudoProxy, aggregate_sources, extract_pseudo_proxies
from .stats import (
    ClientLogStats,
    ServerLogStats,
    characterize_client_log,
    characterize_server_log,
    top_fraction_share,
)

__all__ = [
    "LogRecord",
    "Trace",
    "SymbolTable",
    "TraceChunk",
    "ChunkedCompiledTrace",
    "CompileCache",
    "COMPILE_CACHE",
    "compile_trace",
    "ChunkFileError",
    "ChunkWriter",
    "open_chunked_trace",
    "verify_chunk_file",
    "write_chunked_trace",
    "LogParseError",
    "parse_line",
    "parse_lines",
    "read_log",
    "write_log",
    "format_record",
    "CleaningConfig",
    "CleaningReport",
    "clean_trace",
    "PseudoProxy",
    "extract_pseudo_proxies",
    "aggregate_sources",
    "ClientLogStats",
    "ServerLogStats",
    "characterize_client_log",
    "characterize_server_log",
    "top_fraction_share",
]
