"""Shared I/O helpers: integer CSV ingestion and lossless JSON encoding.

Exact rationals serialize as {"num": ..., "den": ...} string pairs so they
round-trip without loss; floating mirrors are cut to 15 significant digits.
"""

from __future__ import annotations

import json
from fractions import Fraction


class MalformedDataError(ValueError):
    """Input data file (CSV/JSON) could not be parsed as specified."""


def read_integer_csv(path: str) -> list[int]:
    """Read a sequence file: one integer per line, no header."""
    values = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    values.append(int(line))
                except ValueError:
                    raise MalformedDataError(
                        f"{path}:{lineno}: expected one integer per line, got {line!r}"
                    ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDataError(f"cannot read {path}: {exc}") from exc
    if not values:
        raise MalformedDataError(f"{path}: no data lines")
    return values


def read_integer_series(path: str) -> list[int]:
    """Read a sequence from CSV (one integer per line) or a JSON array."""
    if path.endswith(".json"):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedDataError(f"cannot parse {path}: {exc}") from exc
        if not isinstance(data, list) or not data or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in data
        ):
            raise MalformedDataError(f"{path}: expected a nonempty JSON array of integers")
        return data
    return read_integer_csv(path)


def frac_json(value) -> dict[str, str]:
    f = Fraction(value)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def float15(x: float) -> float:
    """Round a float to 15 significant digits for stable serialization."""
    return float(f"{float(x):.15g}")


def dumps_report(report: dict) -> str:
    """Deterministic JSON encoding: sorted keys, stable layout."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
