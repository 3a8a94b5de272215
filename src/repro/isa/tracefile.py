"""Dynamic trace serialization (JSON-lines), format v2.

Traces are deterministic given a kernel and scale, but emulation of the
bigger kernels takes a moment; serializing them lets benchmark sweeps
and external tools share one artifact — and lets users bring traces
recorded elsewhere into the workload registry
(:func:`repro.workloads.add_trace_target`).

On-disk layout (one JSON value per line):

* **header** — ``{"format": "repro-trace", "version": 2, "name": str,
  "count": int, "meta": {...}}``.  ``meta`` is free-form provenance
  (``repro trace record`` writes the source target, scale, and
  generation parameters); it never affects simulation.  Version-1
  files are the same minus ``meta`` and stay loadable forever.
* **records** — one compact array per dynamic instruction::

      [seq, pc, opcode_name, dst, [srcs...], imm, addr, taken, next_pc, fault]

  ``seq`` must equal the record's position: the timing model's fetch
  and squash paths index the trace by ``seq``.

The loader validates everything it reads — a malformed file names the
file, line number, and offending field in a ``ValueError`` rather than
surfacing a bare ``KeyError``/``TypeError`` from parsing internals.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Union

from .instructions import Opcode
from .trace import DynInstr, Trace

FORMAT_VERSION = 2
#: versions the reader accepts (v1 = headers without ``meta``)
SUPPORTED_VERSIONS = (1, 2)

_OPCODES = {op.name: op for op in Opcode}


def file_sha256(path: Union[str, Path]) -> str:
    """Streaming sha256 of a file's bytes (trace content identity)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_trace(trace: Trace, path: Union[str, Path],
               meta: Optional[Dict[str, object]] = None) -> None:
    """Write ``trace`` to ``path`` in the v2 JSONL trace format."""
    path = Path(path)
    with path.open("w") as handle:
        header = {"format": "repro-trace", "version": FORMAT_VERSION,
                  "name": trace.name, "count": len(trace),
                  "meta": dict(meta or {})}
        handle.write(json.dumps(header) + "\n")
        for instr in trace:
            record = [instr.seq, instr.pc, instr.opcode.name, instr.dst,
                      list(instr.srcs), instr.imm, instr.addr,
                      int(instr.taken), instr.next_pc, int(instr.fault)]
            handle.write(json.dumps(record) + "\n")


def read_header(path: Union[str, Path]) -> Dict[str, object]:
    """Parse and validate just the header line of a trace file."""
    path = Path(path)
    with path.open() as handle:
        header_line = handle.readline()
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a trace file") from exc
    if not isinstance(header, dict) or header.get("format") != "repro-trace":
        raise ValueError(f"{path}: not a trace file")
    version = header.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"{path}: unsupported trace version {version}")
    count = header.get("count")
    if not isinstance(count, int) or count < 0:
        raise ValueError(f"{path}: line 1: header field 'count' must be a "
                         f"non-negative integer, got {count!r}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: line 1: header field 'meta' must be an "
                         f"object, got {type(meta).__name__}")
    return header


def _field_error(path: Path, lineno: int, field: str, detail: str,
                 value: object) -> ValueError:
    return ValueError(f"{path}: line {lineno}: field {field!r} {detail}, "
                      f"got {value!r}")


def _parse_record(line: str, lineno: int, index: int, path: Path,
                  srcs_seen: Dict[tuple, tuple]) -> DynInstr:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {lineno}: malformed JSON record") from exc
    if not isinstance(record, list) or len(record) != 10:
        raise ValueError(
            f"{path}: line {lineno}: expected a 10-field record array, "
            f"got {record!r}")
    seq, pc, opname, dst, srcs, imm, addr, taken, next_pc, fault = record
    if not isinstance(seq, int):
        raise _field_error(path, lineno, "seq", "must be an integer", seq)
    if seq != index:
        raise _field_error(path, lineno, "seq",
                           f"must equal the record index {index} "
                           f"(fetch and squash index the trace by seq)", seq)
    for field, value in (("pc", pc), ("imm", imm), ("next_pc", next_pc)):
        if not isinstance(value, int):
            raise _field_error(path, lineno, field, "must be an integer",
                               value)
    opcode = _OPCODES.get(opname) if isinstance(opname, str) else None
    if opcode is None:
        raise ValueError(
            f"{path}: line {lineno}: unknown opcode {opname!r}")
    if dst is not None and not isinstance(dst, int):
        raise _field_error(path, lineno, "dst", "must be an integer or null",
                           dst)
    if addr is not None and not isinstance(addr, int):
        raise _field_error(path, lineno, "addr",
                           "must be an integer or null", addr)
    if (not isinstance(srcs, list)
            or any(not isinstance(src, int) for src in srcs)):
        raise _field_error(path, lineno, "srcs",
                           "must be an array of integers", srcs)
    for field, value in (("taken", taken), ("fault", fault)):
        if value not in (0, 1, True, False):
            raise _field_error(path, lineno, field, "must be 0 or 1", value)
    srcs = tuple(srcs)
    return DynInstr(
        seq=seq, pc=pc, opcode=opcode, op_class=opcode.op_class,
        dst=dst, srcs=srcs_seen.setdefault(srcs, srcs), imm=imm, addr=addr,
        taken=bool(taken), next_pc=next_pc, fault=bool(fault),
        critical=False)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read and validate a trace file (accepts every supported version).

    The returned trace carries the header's ``meta`` dict as
    ``trace.meta`` (empty for v1 files).
    """
    path = Path(path)
    header = read_header(path)
    count = header["count"]
    instrs = []
    # equal source tuples are interned: records share them, as the
    # emulator's records share one tuple per static instruction
    srcs_seen: Dict[tuple, tuple] = {}
    with path.open() as handle:
        handle.readline()                        # the validated header
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            if len(instrs) >= count:
                raise ValueError(
                    f"{path}: line {lineno}: {count} records promised by "
                    f"the header but more follow")
            instrs.append(_parse_record(line, lineno, len(instrs), path,
                                        srcs_seen))
    if len(instrs) != count:
        raise ValueError(f"{path}: truncated trace ({len(instrs)} of "
                         f"{count} records)")
    trace = Trace(instrs, name=header.get("name", path.stem))
    trace.meta = dict(header.get("meta", {}))
    return trace


def validate_trace_file(path: Union[str, Path]) -> Dict[str, object]:
    """Fully parse a trace file; return a summary (raises on any defect)."""
    path = Path(path)
    trace = load_trace(path)
    header = read_header(path)
    return {"path": str(path), "version": header["version"],
            "name": trace.name, "count": len(trace),
            "sha256": file_sha256(path), "meta": trace.meta}


def convert_trace_file(src: Union[str, Path],
                       dst: Union[str, Path]) -> Dict[str, object]:
    """Rewrite a v1/v2 trace file in the current format; return summary."""
    src = Path(src)
    trace = load_trace(src)
    meta = dict(trace.meta)
    meta.setdefault("converted_from",
                    {"path": str(src),
                     "version": read_header(src)["version"]})
    save_trace(trace, dst, meta=meta)
    return validate_trace_file(dst)
