"""File formats consumed and produced by the command-line front end.

Coefficient fields travel as JSON:

    {"schema": 1, "p": 3, "entries": [
        {"beta": [b0, b1, b2], "re": ["a/b", "c/d"], "im": ["a/b", "c/d"]}]}

where a scalar ["a/b", "c/d"] means a/b + (c/d) sqrt(p); plain-rational
files omit the second component and the "p" key.  Eigenvalue tables are
CSV with header p,lambda1,lambda2,lambda3; sampled functions are CSV
y,value rows with ascending y.  Writers emit a canonical form (entries
sorted by norm then coordinates, fractions in lowest terms) so that
write(parse(f)) is byte-identical on canonical files.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .asymptotics import SampledFunction
from .hecke import CoefficientField, EigenvalueTriple, QComplex, QuadExt
from .numerics import SpectralForm
from .quaternions import lattice_norm

SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    pass


def _parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"malformed rational {text!r}") from exc


def _parse_scalar(raw, p: Optional[int]) -> QuadExt:
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not 1 <= len(raw) <= 2:
        raise FileFormatError(f"scalar must be a 1- or 2-element list of rationals, got {raw!r}")
    a = _parse_rational(raw[0])
    b = _parse_rational(raw[1]) if len(raw) == 2 else Fraction(0)
    if b != 0 and p is None:
        raise FileFormatError("sqrt component present but no prime p declared")
    return QuadExt(p if (b != 0 or p is not None) else None, a, b)


def parse_coefficient_field(path: Union[str, Path]) -> CoefficientField:
    """Read a coefficient field; rejects duplicate beta, beta = 0, malformed rationals."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "entries" not in data:
        raise FileFormatError("coefficient file must be an object with an 'entries' list")
    p = data.get("p")
    if p is not None:
        p = int(p)
    entries = {}
    for row in data["entries"]:
        beta = tuple(int(c) for c in row["beta"])
        if len(beta) != 3:
            raise FileFormatError(f"beta must have 3 coordinates, got {row['beta']!r}")
        if beta == (0, 0, 0):
            raise FileFormatError("entry at beta = 0 is not allowed")
        if beta in entries:
            raise FileFormatError(f"duplicate beta {beta}")
        re = _parse_scalar(row.get("re", "0"), p)
        im = _parse_scalar(row.get("im", "0"), p)
        entries[beta] = QComplex(re, im)
    return CoefficientField(p, entries)


def _format_scalar(s: QuadExt, p: Optional[int]) -> list[str]:
    if p is None:
        return [str(s.a)]
    return [str(s.a), str(s.b)]


def write_coefficient_field(field: CoefficientField, path: Union[str, Path]) -> None:
    rows = []
    for beta in sorted(field.entries, key=lambda b: (lattice_norm(b), b)):
        value = field.entries[beta]
        rows.append({
            "beta": list(beta),
            "re": _format_scalar(value.re, field.p),
            "im": _format_scalar(value.im, field.p),
        })
    doc: dict = {"schema": SCHEMA_VERSION}
    if field.p is not None:
        doc["p"] = field.p
    doc["entries"] = rows
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def parse_lambda_table(path: Union[str, Path]) -> dict[int, EigenvalueTriple]:
    """CSV with header p,lambda1,lambda2,lambda3."""
    table = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["p", "lambda1", "lambda2", "lambda3"]
        if reader.fieldnames != expected:
            raise FileFormatError(f"lambda table header must be {','.join(expected)}")
        for row in reader:
            p = int(row["p"])
            table[p] = EigenvalueTriple(
                p=p,
                lam1=float(row["lambda1"]),
                lam2=float(row["lambda2"]),
                lam3=float(row["lambda3"]),
            )
    return table


def write_lambda_table(table: dict[int, EigenvalueTriple], path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "lambda1", "lambda2", "lambda3"])
        for p in sorted(table):
            lam = table[p]
            writer.writerow([p, repr(lam.lam1), repr(lam.lam2), repr(lam.lam3)])


def parse_sampled_function(path: Union[str, Path]) -> SampledFunction:
    """CSV of y,value rows with ascending y starting at 1."""
    ys, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["y", "value"]:
            raise FileFormatError("function file header must be y,value")
        for row in reader:
            ys.append(float(row[0]))
            vals.append(float(row[1]))
    return SampledFunction(grid=np.array(ys), values=np.array(vals), support_bound=ys[-1])


def write_sampled_function(f: SampledFunction, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "value"])
        for y, v in zip(f.grid, f.values):
            writer.writerow([repr(float(y)), repr(float(v))])


def parse_spectral_form(path: Union[str, Path]) -> SpectralForm:
    """JSON {"r": float, "entries": [{"beta": [...], "re": f, "im": f}]} with plain doubles."""
    with open(path) as fh:
        data = json.load(fh)
    coeffs = {}
    for row in data["entries"]:
        beta = tuple(int(c) for c in row["beta"])
        if len(beta) != 3:
            raise FileFormatError(f"beta must have 3 coordinates, got {row['beta']!r}")
        if beta in coeffs:
            raise FileFormatError(f"duplicate beta {beta}")
        coeffs[beta] = complex(float(row.get("re", 0.0)), float(row.get("im", 0.0)))
    return SpectralForm.from_dict(float(data["r"]), coeffs)


def write_spectral_form(form: SpectralForm, path: Union[str, Path]) -> None:
    doc = {
        "schema": SCHEMA_VERSION,
        "r": form.r,
        "entries": [
            {"beta": list(b), "re": c.real, "im": c.imag}
            for b, c in sorted(form.entries, key=lambda e: (lattice_norm(e[0]), e[0]))
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
