"""CSV ingestion and run-artifact emission.

Input data is long-format CSV with header ``t,y,x1,...,xp``: one row per
observation, so a time-varying number of observations per step is
representable.  The first row's t is 1 and every later row's t is that of
the row before it or the next integer, so the steps run 1..T in order
without gaps; a row that breaks this rule is a ParseError naming its
line.  Output files all start with a ``# run <hash>`` comment tying them
to the manifest, which records the resolved configuration, the seed,
package versions, and a sha256 per output file.  Tables and the manifest
are written to a temporary sibling and renamed into place, so a reader
never sees a partial file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import DomainError
from .map_em import RegressionData

__all__ = ["ParseError", "load_data", "write_table", "write_manifest", "verify_dir"]

_MANIFEST_NAME = "manifest.json"


class ParseError(DomainError):
    """Malformed input file; message carries the offending line number."""


def load_data(path: Union[str, Path]) -> RegressionData:
    """Read long-format UTF-8 CSV into per-time (y_t, X_t) blocks.

    A file that cannot be opened or decoded is a ParseError naming the path.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return _parse_rows(path, csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the file ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


def _parse_rows(path: Path, reader) -> RegressionData:
    """The rows of :func:`load_data`'s open file, checked line by line."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    p = len(header) - 2
    if p < 1 or header[:2] != ["t", "y"] or header[2:] != [
        f"x{j + 1}" for j in range(p)
    ]:
        raise ParseError(
            f"{path}: line 1: header must be 't,y,x1,...,xp', got {','.join(header)}"
        )
    # ys[-1] and Xs[-1] collect the rows of the current step, t = len(ys)
    ys: list[list[float]] = []
    Xs: list[list[list[float]]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != p + 2:
            raise ParseError(
                f"{path}: line {lineno}: expected {p + 2} cells, got {len(row)}"
            )
        try:
            t = int(row[0])
            y = float(row[1])
            xs = [float(c) for c in row[2:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: non-numeric cell ({exc})") from None
        if not (math.isfinite(y) and all(map(math.isfinite, xs))):
            col = next(h for h, c in zip(header[1:], [y, *xs]) if not math.isfinite(c))
            raise ParseError(f"{path}: line {lineno}: non-finite {col} cell")
        if t == len(ys) + 1:
            ys.append([])
            Xs.append([])
        elif t != len(ys) or not ys:
            want = f"{len(ys)} or {len(ys) + 1}" if ys else "1"
            raise ParseError(
                f"{path}: line {lineno}: t must be {want} (steps 1..T in order), got {t}"
            )
        ys[-1].append(y)
        Xs[-1].append(xs)
    if not ys:
        raise ParseError(f"{path}: no data rows")
    return RegressionData([np.array(y) for y in ys], [np.array(X) for X in Xs])


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to the sibling ``.NAME.tmp``, then rename it to ``path``.

    Where a directory holds that name, the first ``.NAME.tmp<k>`` that no
    directory holds serves instead, so a stray directory never fails a run.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    k = 0
    while tmp.is_dir():
        k += 1
        tmp = path.with_name(f".{path.name}.tmp{k}")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_table(
    path: Path, run_id: str, header: list[str], rows: Iterable[list[str]]
) -> None:
    """Write a CSV with the run-hash comment line first."""
    lines = [f"# run {run_id}", ",".join(header)]
    lines.extend(",".join(cells) for cells in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def write_manifest(out_dir: Path, run_id: str, config: dict, outputs: list[Path]) -> Path:
    """Record the resolved config, versions, and per-file hashes."""
    import scipy

    from . import __version__

    manifest = {
        "run_id": run_id,
        "config": config,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "dynsparse": __version__,
        },
        "outputs": {
            p.name: _hash_bytes(p.read_bytes()) for p in sorted(outputs)
        },
    }
    path = out_dir / _MANIFEST_NAME
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def verify_dir(out_dir: Union[str, Path]) -> list[str]:
    """Check every manifest-listed file; return a list of problems."""
    out_dir = Path(out_dir)
    manifest_path = out_dir / _MANIFEST_NAME
    if not manifest_path.exists():
        return [f"missing {_MANIFEST_NAME} in {out_dir}"]
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{_MANIFEST_NAME}: cannot be read as JSON ({exc})"]
    if not isinstance(manifest, dict):
        return [f"{_MANIFEST_NAME}: not a JSON object"]
    outputs = manifest.get("outputs", {})
    if not isinstance(outputs, dict):
        return [f"{_MANIFEST_NAME}: outputs is not a JSON object"]
    problems = []
    run_id = manifest.get("run_id", "")
    for name, digest in outputs.items():
        path = out_dir / name
        if not isinstance(digest, str):
            problems.append(f"{_MANIFEST_NAME}: the digest of {name!r} is not a string")
            continue
        if Path(name).name != name or (path.exists() and not path.is_file()):
            problems.append(f"{_MANIFEST_NAME}: {name!r} is not a regular file in {out_dir}")
            continue
        if not path.exists():
            problems.append(f"{name}: listed in manifest but missing")
            continue
        data = path.read_bytes()
        if _hash_bytes(data) != digest:
            problems.append(f"{name}: content hash does not match manifest")
        first = data.split(b"\n", 1)[0].decode(errors="replace")
        if first != f"# run {run_id}":
            problems.append(f"{name}: run header does not match manifest run_id")
    return problems
