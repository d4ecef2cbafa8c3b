"""File formats consumed and produced by the command-line front end.

Coefficient fields travel as JSON:

    {"schema": 1, "p": 3, "entries": [
        {"beta": [b0, b1, b2], "re": ["a/b", "c/d"], "im": ["a/b", "c/d"]}]}

where a scalar ["a/b", "c/d"] means a/b + (c/d) sqrt(p); plain-rational
files omit the second component and the "p" key.  Eigenvalue tables are
CSV with header p,lambda1,lambda2,lambda3; sampled functions are CSV
y,value rows with ascending y; decay parameters are JSON
{"delta": d, "eps": e, "A": A, "a": [...], "b": [...]}.  The
coefficient-field writer emits a canonical form, so that write(parse(f))
is byte-identical on canonical files: the keys schema, p (only when the
field has a prime) and entries, the entries sorted by norm then
coordinates, fractions in lowest terms, laid out exactly as
json.dump(doc, fh, indent=1) followed by a newline lays them out, but
written directly.  "p" and each beta coordinate must be a JSON integer or
an integral float.  A file of the wrong shape raises FileFormatError.

The parser reads each rational as an (n, d) pair of ints, the writer's
forms "n" and "n/d" by one regular expression and int(), any other text
as Fraction(str) reads it, and builds the field's numerator rows over the
lcm of the denominators with no QComplex in between.  The writers rewrite
an existing file in place and then cut it to the length written
(_rewritten), where open(path, "w") truncates it on open (O_TRUNC): on an
ext4 root mounted with discard, truncating and rewriting a 7 KB output
took 115-210 us, writing it over in place and cutting it 17-26 us.  Like
O_TRUNC this is not atomic: a write cut short leaves the head of the new
text, on the old file's tail where that was longer, which fails to parse
(exit 2 from the command line) unless the cut falls where both texts
end an entry at the same byte.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
import stat
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, TextIO, Union

import numpy as np

from .asymptotics import DecayParams, SampledFunction
from .hecke import CoefficientField, EigenvalueTriple, _over_lcm
from .numerics import SpectralForm
from .quaternions import require_odd_prime

SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    pass


def _parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"malformed rational {text!r}") from exc


_CANONICAL_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")  # "n" and "n/d" with d > 0


def _ratio(raw) -> tuple[int, int]:
    """(n, d) with d > 0 and n/d the rational that raw denotes, read as _parse_rational reads it."""
    if type(raw) is str and (match := _CANONICAL_RATIONAL.fullmatch(raw)):
        n, d = match.groups()
        try:
            return int(n), int(d) if d else 1
        except ValueError:  # past int()'s digit limit, which Fraction() meets as well
            pass
    return _parse_rational(raw).as_integer_ratio()


def _number(kind: type, raw, what: str):
    """kind(raw) for kind int or float; a value it cannot convert raises FileFormatError naming `what`."""
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{what} must be a number, got {raw!r}") from exc


def _is_integer(raw) -> bool:
    """A JSON int, or an integral float such as 2.0: int() would truncate 1.5 to 1 and read true or "3" as well."""
    return type(raw) is int or (type(raw) is float and raw.is_integer())


def _entries(data, what: str) -> dict[tuple[int, int, int], dict]:
    """{beta: row} over the 'entries' list of a JSON object; each beta is 3 integers, none repeated."""
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise FileFormatError(f"{what} must be an object with an 'entries' list")
    rows = {}
    for row in data["entries"]:
        if not isinstance(row, dict) or not isinstance(row.get("beta"), list):
            raise FileFormatError(f"each entry must be an object with a 'beta' list, got {row!r}")
        if not all(map(_is_integer, row["beta"])):
            raise FileFormatError(f"beta coordinates must be integers, got {row['beta']!r} in entry {row!r}")
        beta = tuple(map(int, row["beta"]))
        if len(beta) != 3:
            raise FileFormatError(f"beta must have 3 coordinates, got {row['beta']!r}")
        if beta in rows:
            raise FileFormatError(f"duplicate beta {beta}")
        rows[beta] = row
    return rows


def _scalar(raw, p: Optional[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (n, d) pairs of a and b in a scalar ["a", "b"], a + b sqrt(p); "a" or ["a"] has b = 0."""
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not 1 <= len(raw) <= 2:
        raise FileFormatError(f"scalar must be a 1- or 2-element list of rationals, got {raw!r}")
    a = _ratio(raw[0])
    b = _ratio(raw[1]) if len(raw) == 2 else (0, 1)
    if b[0] and p is None:
        raise FileFormatError("sqrt component present but no prime p declared")
    return a, b


def parse_coefficient_field(path: Union[str, Path]) -> CoefficientField:
    """Read a coefficient field; rejects duplicate beta, beta = 0, malformed rationals, a p that is not
    an odd prime.  Entries whose value is zero are dropped."""
    with open(path) as fh:
        data = json.load(fh)
    rows = _entries(data, "coefficient file")
    p = data.get("p")
    if p is not None:
        if not _is_integer(p):
            raise FileFormatError(f"p must be an integer, got {p!r}")
        p = int(p)
    points, ratios = [], []
    for beta, row in rows.items():
        if beta == (0, 0, 0):
            raise FileFormatError("entry at beta = 0 is not allowed")
        parts = (*_scalar(row.get("re", "0"), p), *_scalar(row.get("im", "0"), p))
        if any(n for n, _ in parts):
            points.append(beta)
            ratios += parts
    if p is not None:
        require_odd_prime(p)
    return CoefficientField._from_rows(p, *_over_lcm(points, ratios))


@contextlib.contextmanager
def _rewritten(path: Union[str, Path], newline: Optional[str] = None) -> Iterator[TextIO]:
    """path opened for writing text as open(path, "w") opens it, but without truncating: once the body
    has written the text, a regular file is cut to that length, so an existing one is written over in
    place (module docstring), and /dev/null or a pipe is written as before."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()  # flushes, then cuts at the position written to


def write_coefficient_field(field: CoefficientField, path: Union[str, Path]) -> None:
    """Write the canonical file (module docstring) straight from f-strings.

    The text is the one json.dump(doc, fh, indent=1) plus a newline gives:
    each value is an int or the str of a Fraction, which needs no JSON
    escaping, while the stdlib encoder runs its pure-Python path for indent.
    Each part is a numerator of the field over its denominator, put in
    lowest terms by one gcd as str(Fraction) writes it.  Rows go out one at
    a time, so no copy of the whole text is held.  An existing file is
    written over in place and cut to the new length (_rewritten): no more
    atomic than truncating it on open, and 0.1-0.2 ms faster on a 7 KB
    file (module docstring).
    """
    den = field.den
    parts = [str(n // g) if (g := math.gcd(n, den)) == den else f"{n // g}/{den // g}"
             for n in field.nums.ravel().tolist()]  # ra, rb, ia, ib of each row in turn
    if field.p is None:
        def scalar(i: int) -> str:
            return f'[\n    "{parts[i]}"\n   ]'
    else:
        def scalar(i: int) -> str:
            return f'[\n    "{parts[i]}",\n    "{parts[i + 1]}"\n   ]'

    rows = sorted(zip(field.norms.tolist(), map(tuple, field.keys.tolist()), range(len(field.keys))))
    seps = ("\n", ",\n")
    with _rewritten(path) as fh:
        fh.write(f'{{\n "schema": {SCHEMA_VERSION},\n' + ("" if field.p is None else f' "p": {field.p},\n')
                 + ' "entries": [')
        fh.writelines(f'{seps[i > 0]}  {{\n   "beta": [\n    {b[0]},\n    {b[1]},\n    {b[2]}\n   ],\n'
                      f'   "re": {scalar(4 * k)},\n   "im": {scalar(4 * k + 2)}\n  }}'
                      for i, (_, b, k) in enumerate(rows))
        fh.write("\n ]\n}\n" if rows else "]\n}\n")


def parse_lambda_table(path: Union[str, Path]) -> dict[int, EigenvalueTriple]:
    """CSV with header p,lambda1,lambda2,lambda3."""
    table = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["p", "lambda1", "lambda2", "lambda3"]
        if reader.fieldnames != expected:
            raise FileFormatError(f"lambda table header must be {','.join(expected)}")
        for row in reader:
            if len(row) != 4 or None in row.values():
                raise FileFormatError(f"lambda table line {reader.line_num} must have 4 fields")
            p = _number(int, row["p"], f"lambda table line {reader.line_num}: p")
            lams = [_number(float, row[key], key) for key in expected[1:]]
            if not all(map(math.isfinite, lams)):
                raise FileFormatError(f"lambda table line {reader.line_num} has a non-finite eigenvalue: {lams}")
            table[p] = EigenvalueTriple(p, *lams)
    return table


def parse_sampled_function(path: Union[str, Path]) -> SampledFunction:
    """CSV of y,value rows with ascending y starting at 1."""
    ys, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip() for h in header] != ["y", "value"]:
            raise FileFormatError("function file header must be y,value")
        for row in reader:
            if len(row) != 2:
                raise FileFormatError(f"function file line {reader.line_num} must be y,value, got {row!r}")
            ys.append(_number(float, row[0], f"function file line {reader.line_num}: y"))
            vals.append(_number(float, row[1], f"function file line {reader.line_num}: value"))
    if not ys:
        raise FileFormatError("function file has no y,value rows")
    return SampledFunction(grid=np.array(ys), values=np.array(vals))


def write_sampled_function(f: SampledFunction, path: Union[str, Path]) -> None:
    with _rewritten(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "value"])
        for y, v in zip(f.grid, f.values):
            writer.writerow([repr(float(y)), repr(float(v))])


def parse_spectral_form(path: Union[str, Path]) -> SpectralForm:
    """JSON {"r": float, "entries": [{"beta": [...], "re": f, "im": f}]} with plain doubles."""
    with open(path) as fh:
        data = json.load(fh)
    coeffs = {}
    for beta, row in _entries(data, "spectral form").items():
        coeffs[beta] = complex(_number(float, row.get("re", 0.0), "re"), _number(float, row.get("im", 0.0), "im"))
    return SpectralForm.from_dict(_number(float, data.get("r"), "r"), coeffs)


def parse_decay_params(path: Union[str, Path]) -> DecayParams:
    """JSON {"delta": d, "eps": e, "A": A, "a": [...], "b": [...]}; each a_m and b_n is a constant."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not all(isinstance(raw.get(key, []), list) for key in "ab"):
        raise FileFormatError("params file must be an object with numbers delta, eps, A and lists a, b")
    const = lambda v: (lambda y: v)  # noqa: E731
    funcs = {key: tuple(const(_number(float, v, key)) for v in raw.get(key, [])) for key in "ab"}
    return DecayParams(delta=_number(float, raw.get("delta"), "delta"), eps=_number(float, raw.get("eps"), "eps"),
                       A=_number(float, raw.get("A"), "A"), a_funcs=funcs["a"], b_funcs=funcs["b"])
