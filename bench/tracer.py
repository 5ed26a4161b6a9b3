"""Spans and counters around the library's public functions, from outside it.

`Tracer.install` rebinds every public function of each layer module, in
every module that holds a reference to it (so `lifting.solve_int_with_ranks`,
imported from `linalg_exact`, is wrapped too and spans nest). A span records
its name, start, end, parent span and item id; spans stay in memory until
`write` is called. Hot leaf functions are counted only, with no span.
`uninstall` restores the original bindings, so untraced passes run the
library exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

PACKAGE = "koopman_dh"
LAYERS = (
    "dynamics",
    "lifting",
    "linalg_exact",
    "edmd",
    "spectral",
    "cyclotomic",
    "complexity",
    "serialize",
    "cli",
)
# Called O(q*p) times per recovery query or (q+1)^2 times per exact eigen
# check: a span each would cost more than the work it measures.
COUNTED_ONLY = frozenset({"cyclotomic.turn_to_complex"})
COUNTED_METHODS = {"cyclotomic.RootSum.is_zero": ("RootSum", "is_zero")}
# Item id of the spans made while a workload sets up.
SETUP = "setup"


def _tag(name: str, args, result):
    """Per-span detail read off a call's result, for ratios and splits."""
    if result is None:
        return None
    if name == "lifting.solve_alpha_exact":
        return result.solvable
    if name == "edmd.edmd_fit":
        return result.fit_kind
    if name == "spectral.recover_exponent":
        return (len(result.per_eigenvalue_residues), args[2].q)
    return None


class Tracer:
    """Install, record, uninstall; `item` names the item that later spans belong to."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, item, tag)
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item, _tag(name, args, result))

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        holders = list(modules.values()) + [importlib.import_module(PACKAGE)]
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counter if name in COUNTED_ONLY else self._span
                wrappers[id(fn)] = wrap(name, fn)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers:
                    self._rebind(holder, attr, wrappers[id(value)])
        for name, (cls_name, method) in COUNTED_METHODS.items():
            cls = getattr(modules[name.split(".")[0]], cls_name)
            self._rebind(cls, method, self._counter(name, getattr(cls, method)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, item, tag]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = defaultdict(float)
    for _, start, end, parent, *_rest in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def outer_time(spans, inside) -> float:
    """Time in pass spans whose name satisfies `inside`, not counting nested ones."""
    return sum(
        end - start
        for name, start, end, parent, item, _ in spans
        if item != SETUP and inside(name) and (parent < 0 or not inside(spans[parent][0]))
    )


def layer_metrics(spans, counts, passes: int, items: int) -> dict:
    """Per-layer metrics of the traced passes: seconds per pass, counts per item.

    Spans made during set-up count only in `spectral.setup_eigen_s`; `counts`
    must hold the counts of the traced passes alone.
    """
    selfs = self_times(spans)
    per_pass, per_item = 1.0 / passes, 1.0 / items
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] != SETUP:
            by_name[span[0]].append(i)

    def seconds(name, tag_ok=lambda tag: True):
        return per_pass * sum(spans[i][2] - spans[i][1] for i in by_name[name] if tag_ok(spans[i][5]))

    def calls(name):
        return per_item * len(by_name[name])

    def self_of(layer):
        return per_pass * sum(
            selfs[i] for name, idx in by_name.items() if name.startswith(layer + ".") for i in idx
        )

    solves = [spans[i][5] for i in by_name["lifting.solve_alpha_exact"]]
    used = [spans[i][5] for i in by_name["spectral.recover_exponent"]]
    rational = {f"linalg_exact.{f}" for f in ("rref", "inverse", "pinv", "matmul")}
    dataset = {"edmd.build_dataset", "edmd.dataset_from_values"}
    metrics = {
        "lifting.hankel_solves": (calls("lifting.solve_alpha_exact"), "count/item"),
        "lifting.hankel_solvable_ratio": (sum(solves) / len(solves) if solves else 0.0, "ratio"),
        "lifting.min_dim_s": (seconds("lifting.minimal_lifting_dimension"), "s/pass"),
        "lifting.verify_closing_s": (seconds("lifting.verify_closing"), "s/pass"),
        "lifting.min_dim_calls": (calls("lifting.minimal_lifting_dimension"), "count/item"),
        "linalg_exact.int_solve_s": (seconds("linalg_exact.solve_int_with_ranks"), "s/pass"),
        "linalg_exact.int_rank_s": (seconds("linalg_exact.rank_int"), "s/pass"),
        "linalg_exact.rational_s": (per_pass * outer_time(spans, rational.__contains__), "s/pass"),
        "edmd.fit_unique_s": (seconds("edmd.edmd_fit", lambda kind: kind == "unique"), "s/pass"),
        "edmd.fit_minnorm_s": (
            seconds("edmd.edmd_fit", lambda kind: kind == "minimum-norm"),
            "s/pass",
        ),
        "edmd.compare_s": (seconds("edmd.compare_operators"), "s/pass"),
        "edmd.under_s": (seconds("edmd.edmd_underparameterized"), "s/pass"),
        "edmd.dataset_s": (per_pass * outer_time(spans, dataset.__contains__), "s/pass"),
        "spectral.eigen_s": (seconds("spectral.eigen_canonical"), "s/pass"),
        "spectral.setup_eigen_s": (
            sum(
                end - start
                for name, start, end, _, item, _ in spans
                if item == SETUP and name == "spectral.eigen_canonical"
            ),
            "s",
        ),
        "spectral.recover_s": (seconds("spectral.recover_exponent"), "s/pass"),
        "spectral.recover_self_s": (
            per_pass * sum(selfs[i] for i in by_name["spectral.recover_exponent"]),
            "s/pass",
        ),
        "spectral.transform_calls": (calls("spectral.transform"), "count/item"),
        "spectral.eigen_used_ratio": (
            sum(u for u, _ in used) / sum(q for _, q in used) if used else 0.0,
            "ratio",
        ),
        "spectral.exact_check_s": (seconds("spectral.eigenpair_residuals_exact_zero"), "s/pass"),
        "cyclotomic.turn_to_complex_calls": (
            per_item * counts.get("cyclotomic.turn_to_complex", 0),
            "count/item",
        ),
        "cyclotomic.is_zero_calls": (per_item * counts.get("cyclotomic.RootSum.is_zero", 0), "count/item"),
        "complexity.bm_s": (seconds("complexity.berlekamp_massey"), "s/pass"),
        "complexity.compare_s": (seconds("complexity.compare_koopman_vs_lfsr"), "s/pass"),
        "dynamics.busy_s": (
            per_pass * outer_time(spans, lambda name: name.startswith("dynamics.")),
            "s/pass",
        ),
        "cli.sweep_s": (seconds("cli.main"), "s/pass"),
        "serialize.dumps_s": (seconds("serialize.dumps_report"), "s/pass"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_of(layer), "s/pass")
    return metrics
