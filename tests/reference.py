"""Reference helpers that only the tests need: plain-loop twins of library paths and test-data writers."""

import csv
import json
from fractions import Fraction

from h4hecke.clifford import CliffordElement
from h4hecke.files import SCHEMA_VERSION
from h4hecke.geometry import PointH4, act, as_point, word_to_matrix
from h4hecke.quaternions import lattice_norm


def apply_matrix(mat, beta):
    """mat @ beta on integer triples, one coordinate at a time: the reference for the conjugate-sum scatter."""
    b0, b1, b2 = beta
    return (
        mat[0][0] * b0 + mat[0][1] * b1 + mat[0][2] * b2,
        mat[1][0] * b0 + mat[1][1] * b1 + mat[1][2] * b2,
        mat[2][0] * b0 + mat[2][1] * b1 + mat[2][2] * b2,
    )


def apply_word(word, z) -> PointH4:
    """z carried through a reduction word one generator at a time."""
    out = as_point(z)
    for token in word:
        out = act(word_to_matrix((token,)), out)
    return out


def cosh_distance(z, w) -> float:
    """cosh of the hyperbolic distance: 1 + |z - w|^2 / (2 y_z y_w)."""
    z, w = as_point(z), as_point(w)
    diff = sum((zc - wc) ** 2 for zc, wc in zip(z.as_tuple(), w.as_tuple()))
    return 1.0 + diff / (2.0 * z.y * w.y)


def vector_coords(x: CliffordElement) -> tuple:
    """The coordinates of a vector of C_n on 1, e_1, ..., e_n."""
    if not x.is_vector:
        raise ValueError("element is not a vector")
    return tuple(x.coeffs.get(b, Fraction(0)) for b in [()] + [(h,) for h in range(1, x.n + 1)])


def write_lambda_table(table, path) -> None:
    """A CSV eigenvalue table with header p,lambda1,lambda2,lambda3, rows in ascending p."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "lambda1", "lambda2", "lambda3"])
        for p in sorted(table):
            lam = table[p]
            writer.writerow([p, repr(lam.lam1), repr(lam.lam2), repr(lam.lam3)])


def write_spectral_form(form, path) -> None:
    """A spectral-form JSON file, entries sorted by norm then coordinates."""
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
