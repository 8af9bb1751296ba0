"""The declared registry of every ``REPRO_*`` environment knob.

Every environment variable the reproduction reads is declared here
exactly once — name, type, default, owning layer — and everything else
derives from the declaration:

* **Runtime reads** go through :func:`get_flag` / :func:`get_int` /
  :func:`get_str`, so a knob's default lives in one place.
* **The static analysis** (:mod:`repro.checks.concurrency`, REPRO308)
  flags any ``os.environ`` read of an undeclared ``REPRO_*`` name and
  any literal default that disagrees with the registry.
* **The docs** — the knob tables in README.md and EXPERIMENTS.md are
  generated from this file (``python -m repro.knobs --write``) and a
  drift test fails when a knob is added without registry + docs.
* **The bench fingerprint** — :mod:`repro.obs.bench` records the knobs
  marked ``fingerprint=True`` next to every timing, so a baseline from a
  differently-knobbed run never gates a timing comparison.

This module sits below every layer (it imports only the stdlib), so the
kernel, the parallel layer, the checks package and the benchmarks can
all consume it without creating import cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Values (lower-cased, stripped) that turn a ``flag`` knob off.
FALSE_WORDS = ("", "0", "false", "off", "no")


@dataclass(frozen=True)
class Knob:
    """One declared environment knob."""

    name: str  # the environment variable, e.g. "REPRO_CHAOS"
    kind: str  # "flag" | "int" | "str"
    default: Optional[str]  # raw value assumed when unset; None = computed
    layer: str  # owning layer ("parallel", "cycles", "checks", ...)
    fingerprint: bool  # recorded in the bench environment fingerprint?
    description: str

    def default_text(self) -> str:
        """The default as the docs table shows it."""
        if self.default is None:
            return "(computed)"
        if self.kind == "flag":
            return "on" if self.default.strip().lower() not in FALSE_WORDS else "off"
        return self.default if self.default else '""'


#: The registry, sorted by name.  Adding an ``os.environ`` read of a new
#: ``REPRO_*`` name without a row here fails both REPRO308 and the
#: drift test in tests/unit/test_knobs.py.
KNOBS: Tuple[Knob, ...] = (
    Knob(
        name="REPRO_BENCH_SCALE",
        kind="str",
        default="full",
        layer="benchmarks",
        fingerprint=False,
        description="benchmark scale preset (`smoke` shrinks sizes and relaxes floors for CI)",
    ),
    Knob(
        name="REPRO_BENCH_SHARDS",
        kind="int",
        default=None,
        layer="benchmarks",
        fingerprint=False,
        description="shard count for the sharded scaling bench (default picked by the scale preset)",
    ),
    Knob(
        name="REPRO_BENCH_WORKERS",
        kind="int",
        default="1",
        layer="benchmarks",
        fingerprint=False,
        description="worker count for the parallel benches",
    ),
    Knob(
        name="REPRO_CHAOS",
        kind="flag",
        default="",
        layer="parallel",
        fingerprint=True,
        description=(
            "chaos-order sanitizer: permute completion/consumption order at "
            "every pool barrier and inject seeded worker delays; outputs "
            "must stay byte-identical (the runtime witness of the "
            "determinism contract)"
        ),
    ),
    Knob(
        name="REPRO_CHAOS_SEED",
        kind="int",
        default="0",
        layer="parallel",
        fingerprint=False,
        description="seed of the chaos permutation/delay stream",
    ),
    Knob(
        name="REPRO_SANITIZE",
        kind="str",
        default="",
        layer="checks",
        fingerprint=True,
        description=(
            "shadow-oracle sanitizer (`1` = raise on violation, `warn` = "
            "record); exported to the environment so pool workers "
            "self-activate"
        ),
    ),
    Knob(
        name="REPRO_SANITIZE_STRIDE",
        kind="int",
        default="1",
        layer="checks",
        fingerprint=False,
        description="sanitizer sampling stride (shadow-check every Nth sample)",
    ),
)

_BY_NAME: Dict[str, Knob] = {k.name: k for k in KNOBS}


def knob(name: str) -> Knob:
    """The declared :class:`Knob`, or :class:`KeyError` for undeclared names."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"undeclared knob {name!r}: declare it in repro.knobs.KNOBS "
            "(REPRO308 flags undeclared os.environ reads)"
        ) from None


def knob_names(
    layer: Optional[str] = None, fingerprint: Optional[bool] = None
) -> Tuple[str, ...]:
    """Declared names, optionally filtered by layer / fingerprint flag."""
    return tuple(
        k.name
        for k in KNOBS
        if (layer is None or k.layer == layer)
        and (fingerprint is None or k.fingerprint == fingerprint)
    )


def raw(name: str) -> Optional[str]:
    """The raw environment value of a *declared* knob (None when unset)."""
    return os.environ.get(knob(name).name)


def get_flag(name: str) -> bool:
    """A ``flag`` knob's effective value (:data:`FALSE_WORDS` disable)."""
    value = raw(name)
    if value is None:
        value = knob(name).default or ""
    return value.strip().lower() not in FALSE_WORDS


def get_int(name: str) -> int:
    """An ``int`` knob's effective value.

    Unset or unparsable values fall back to the declared default; a
    knob declared with ``default=None`` (computed by its owner) raises
    ``ValueError`` here — its owner must supply the fallback itself.
    """
    declared = knob(name)
    value = raw(name)
    if value is not None:
        try:
            return int(value)
        except ValueError:
            pass
    if declared.default is None:
        raise ValueError(f"{name} has no registry default; the owner computes it")
    return int(declared.default)


def get_str(name: str) -> str:
    """A ``str`` knob's effective value (declared default when unset)."""
    value = raw(name)
    if value is None:
        return knob(name).default or ""
    return value


# ----------------------------------------------------------------------
# Docs generation: the knob tables in README.md / EXPERIMENTS.md
# ----------------------------------------------------------------------
DOCS_BEGIN = "<!-- repro-knobs:begin (generated by `python -m repro.knobs --write`; do not edit by hand) -->"
DOCS_END = "<!-- repro-knobs:end -->"


def render_table() -> str:
    """The registry as a markdown table, one row per knob."""
    rows = [
        "| Knob | Type | Default | Layer | What it does |",
        "| --- | --- | --- | --- | --- |",
    ]
    for k in KNOBS:
        rows.append(
            f"| `{k.name}` | {k.kind} | {k.default_text()} | {k.layer} "
            f"| {k.description} |"
        )
    return "\n".join(rows)


def docs_block() -> str:
    """The marker-delimited block embedded verbatim in the docs."""
    return f"{DOCS_BEGIN}\n{render_table()}\n{DOCS_END}"


def update_docs(paths: List[str], check: bool = False) -> List[str]:
    """Rewrite (or with ``check`` just diff) the knob block in ``paths``.

    Each file must already contain the begin/end markers; the text
    between them is replaced with the current registry rendering.
    Returns the files whose block was (or would be) changed.
    """
    block = docs_block()
    changed: List[str] = []
    for path in paths:
        with open(path, "r") as handle:
            text = handle.read()
        begin = text.find(DOCS_BEGIN)
        end = text.find(DOCS_END)
        if begin < 0 or end < 0:
            raise ValueError(f"{path}: missing repro-knobs markers")
        updated = text[:begin] + block + text[end + len(DOCS_END):]
        if updated != text:
            changed.append(path)
            if not check:
                with open(path, "w") as handle:
                    handle.write(updated)
    return changed


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.knobs [--write|--check] [files...]``"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.knobs", description="REPRO_* knob registry and docs table."
    )
    parser.add_argument(
        "files",
        nargs="*",
        default=["README.md", "EXPERIMENTS.md"],
        help="docs carrying the generated block (default: README.md EXPERIMENTS.md)",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--write", action="store_true", help="rewrite the block in the docs"
    )
    group.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any doc block is out of date",
    )
    args = parser.parse_args(argv)
    if args.write or args.check:
        changed = update_docs(args.files, check=args.check)
        if args.check and changed:
            print("out-of-date knob tables: " + ", ".join(changed))
            return 1
        for path in changed:
            print(f"updated knob table: {path}")
        return 0
    print(render_table())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    import sys

    sys.exit(main())
