"""Optional C code-generation backend (the paper's native codegen).

The published LMFAO emits C++ compiled with g++; this module restores that
fidelity where a toolchain is available: each :class:`MultiOutputPlan` is
lowered to C99, compiled with ``gcc -O1 -fPIC -shared`` into a shared
object of its own and invoked through ctypes. The generated C mirrors the Python backend statement for
statement — same trie loops, probes, γ/β locals, support guards and output
updates — so the two backends are differentially testable.

Runtime data layout (all buffers allocated by Python as numpy arrays and
passed as a single ``void**`` argument vector):

* trie levels — the CSR arrays of :class:`repro.data.trie.TrieIndex`;
* scalar incoming views — flattened entry arrays (key part columns + a
  row-major aggregate matrix); the generated prologue builds an
  open-addressing hash table (linear probing, splitmix64 mixing) in
  preallocated buffers;
* carried incoming views — entries sorted by local key; a hash table maps
  each distinct key to its contiguous entry range (sub-sums and keyed
  emissions iterate ranges);
* outputs — aligned emissions append into arrays sized by the emission
  level's run count; accumulating emissions use a preallocated
  open-addressing table. Table overflow makes the function return 1 and
  the wrapper retries with doubled capacities (results are a pure function
  of the inputs, so the retry is safe).

Supported plans: integer (categorical) trie levels, view keys and group-by
attributes. :func:`supports_plan` reports this; the engine falls back to
the Python backend per group otherwise (e.g. Rk-means' float dimensions).

**Concurrency.** Generated functions are reentrant: they touch only their
argument vector, every mutable buffer (view hash tables, output tables) is
allocated fresh per call by :meth:`CCompiledGroup._attempt`, and the shared
input arrays (trie levels, prefix sums, view entries) are ``const`` on the
C side and read-only numpy arrays on the Python side. Calls go through
``ctypes.CDLL``, which **releases the GIL** for the duration of the native
call — so the engine's domain-parallel mode (one call per trie partition,
see ``repro.core.runtime``) gets real multicore scaling on this backend.

**Compile cache.** :func:`compile_c_groups` compiles each distinct group
source once per process. The key is the SHA-1 of the prelude, the
group's source (its symbol included) and the gcc flags; the value is the
loaded ``ctypes.CDLL``. Batches that repeat a group — CART's per-node
batches, a server's cold compiles of related structures, every engine
over the same schema — bind to the library already mapped instead of
running gcc again. Lookups take a short lock; gcc runs outside it, and a
second caller missing a digest that is already being compiled waits for
that compile rather than starting its own (single flight). A failed
compile is not cached: the next call retries. The cache holds handles
only — the ``.so`` files live in a per-call temporary directory removed
once they are mapped — and it lives as long as the process. Nothing is
ever unloaded with ``dlclose``: ctypes offers no safe unload while bound
function pointers may still be called, and an object that stays mapped
keeps its inode allocated, so ``dlopen`` (which recognises a loaded
object by device and inode) can never mistake a later compile for it.
Mapped code is therefore bounded by the number of distinct group sources
the process has seen.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import logging
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.lowering import (
    MODE_ALIGNED,
    MODE_SCALAR,
    base_emission_mode,
    lower_plan,
)
from repro.core.plan import (
    CountTerm,
    Emission,
    EmissionSlot,
    FactorTerm,
    MultiOutputPlan,
    RowSumTerm,
    SubSumTerm,
    Term,
    ViewTerm,
)
from repro.core.runtime import prepared_binding
from repro.data.trie import TrieIndex
from repro.query.functions import Function
from repro.util.errors import PlanError

logger = logging.getLogger(__name__)

_GCC_FLAGS = ("-O1", "-fPIC", "-shared")

_PRELUDE = r"""
#include <stdint.h>

static inline uint64_t lmfao_mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}
"""


def gcc_available() -> bool:
    """True when a usable ``gcc`` is on PATH."""
    try:
        subprocess.run(
            ["gcc", "--version"], capture_output=True, check=True, timeout=10
        )
        return True
    except Exception:
        return False


def supports_plan(plan: MultiOutputPlan, attribute_kinds: Mapping[str, str]) -> bool:
    """Whether the C backend can execute ``plan``.

    ``attribute_kinds`` maps attribute name to ``"categorical"`` /
    ``"continuous"``; every trie level, view key and emission key must be
    integer (carried blocks are supported — their keys and carried
    attributes are group-by attributes, hence categorical by check below).
    """
    for level in plan.relation_levels:
        if attribute_kinds.get(level.attr) != "categorical":
            return False
    for emission in plan.emissions:
        for attr in emission.group_by:
            if attribute_kinds.get(attr) != "categorical":
                return False
    for block in plan.carried_blocks:
        for attr in block.key + block.carried:
            if attribute_kinds.get(attr) != "categorical":
                return False
    return True


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------


class _CWriter:
    def __init__(self) -> None:
        self._buf = io.StringIO()
        self._indent = 1

    def line(self, text: str = "") -> None:
        self._buf.write("    " * self._indent + text + "\n")

    def push(self) -> None:
        self._indent += 1

    def pop(self) -> None:
        self._indent -= 1

    def text(self) -> str:
        return self._buf.getvalue()


@dataclass
class _ArgSpec:
    """One slot of the void** argument vector, in order."""

    name: str  # C variable name
    ctype: str  # C pointer type
    role: tuple  # how the Python wrapper fills it


def _emission_mode(emission: Emission) -> str:
    """The shared lowering's *base* mode, with ``'aligned'`` rendered as
    this backend's ``'append'`` (aligned emissions append into
    run-count-sized arrays instead of materialising masked columns).
    Ordered (``'topk'``) emissions render as their base: the generated C
    accumulates the full group set, and the bounded-heap ranked cut runs
    over its output at result finishing (:mod:`repro.core.topk`)."""
    mode = base_emission_mode(emission)
    return "append" if mode == MODE_ALIGNED else mode


def generate_c_source(plan: MultiOutputPlan, symbol: str) -> tuple[str, list[_ArgSpec]]:
    """Lower one plan to a C function ``int32_t <symbol>(void** a)``.

    Returns the source and the ordered argument specs the wrapper must
    provide. A return value of 1 signals output-table overflow (retry with
    larger buffers).
    """
    num_rel = len(plan.relation_levels)
    lowered = lower_plan(plan)
    args: list[_ArgSpec] = []

    def arg(name: str, ctype: str, role: tuple) -> str:
        args.append(_ArgSpec(name=name, ctype=ctype, role=role))
        return name

    w = _CWriter()

    # ---------------- argument layout --------------------------------------
    arg("NROWS_P", "const int64_t*", ("nrows",))
    for k in range(num_rel):
        for part in ("vals", "rs", "re", "cs", "ce"):
            arg(f"L{k}_{part}", "const int64_t*", ("level", k, part))
    arg("NRUNS_P", "const int64_t*", ("run_counts",))  # per-level run counts
    farr_var: dict[tuple[int, str, str], str] = {}
    for i, key in enumerate(plan.level_functions):
        farr_var[key] = arg(f"F{i}", "const double*", ("farr", key))
    psum_var: dict[tuple, str] = {}
    for i, product in enumerate(plan.row_products):
        psum_var[product] = arg(f"P{i}", "const double*", ("psum", product))

    binding_index: dict[str, int] = {}
    binding_by_view = {b.view: b for b in plan.bindings}
    blocks = {cb.index: cb for cb in plan.carried_blocks}
    block_binding = {
        cb.index: binding_by_view[cb.view] for cb in plan.carried_blocks
    }
    for i, binding in enumerate(plan.bindings):
        binding_index[binding.view] = i
        kparts = len(binding.key)
        arg(f"B{i}_m", "const int64_t*", ("bind_count", binding.view))
        for p in range(kparts):
            arg(f"B{i}_ek{p}", "const int64_t*", ("bind_keys", binding.view, p))
        arg(f"B{i}_ev", "const double*", ("bind_vals", binding.view))
        arg(f"B{i}_mask_p", "const int64_t*", ("bind_mask", binding.view))
        arg(f"B{i}_occ", "int8_t*", ("bind_occ", binding.view))
        for p in range(kparts):
            arg(f"B{i}_k{p}", "int64_t*", ("bind_tk", binding.view, p))
        arg(f"B{i}_lo", "int64_t*", ("bind_lo", binding.view))
        arg(f"B{i}_hi", "int64_t*", ("bind_hi", binding.view))
        if binding.is_carried:
            for p in range(len(binding.carried)):
                arg(
                    f"CB{binding.block}_c{p}",
                    "const int64_t*",
                    ("bind_carried", binding.view, p),
                )

    out_specs: list[tuple[Emission, str]] = []
    for i, emission in enumerate(plan.emissions):
        mode = _emission_mode(emission)
        out_specs.append((emission, mode))
        kparts = len(emission.group_by)
        if mode == "scalar":
            arg(f"O{i}_v", "double*", ("out_scalar", i))
        elif mode == "append":
            for p in range(kparts):
                arg(f"O{i}_k{p}", "int64_t*", ("out_keys", i, p))
            arg(f"O{i}_v", "double*", ("out_vals", i))
            arg(f"O{i}_n", "int64_t*", ("out_count", i))
        else:  # hash accumulate
            arg(f"O{i}_mask_p", "const int64_t*", ("out_mask", i))
            arg(f"O{i}_occ", "int8_t*", ("out_occ", i))
            for p in range(kparts):
                arg(f"O{i}_k{p}", "int64_t*", ("out_keys", i, p))
            arg(f"O{i}_v", "double*", ("out_vals", i))
            arg(f"O{i}_n", "int64_t*", ("out_count", i))

    # ---------------- prologue: build view hash tables ----------------------
    w.line("const int64_t NROWS = NROWS_P[0];")
    w.line("(void)NROWS; (void)NRUNS_P;")
    for i, binding in enumerate(plan.bindings):
        kparts = len(binding.key)
        w.line(f"const int64_t B{i}_mask = B{i}_mask_p[0];")
        if not binding.is_carried:
            # one table entry per view entry: key -> row range [e, e+1)
            w.line(f"for (int64_t e = 0; e < B{i}_m[0]; e++) {{")
            w.push()
            parts = " ^ ".join(
                f"lmfao_mix((uint64_t)B{i}_ek{p}[e] + {p})" for p in range(kparts)
            )
            w.line(f"uint64_t h = ({parts}) & (uint64_t)B{i}_mask;")
            w.line(f"while (B{i}_occ[h]) h = (h + 1) & (uint64_t)B{i}_mask;")
            w.line(f"B{i}_occ[h] = 1;")
            for p in range(kparts):
                w.line(f"B{i}_k{p}[h] = B{i}_ek{p}[e];")
            w.line(f"B{i}_lo[h] = e; B{i}_hi[h] = e + 1;")
            w.pop()
            w.line("}")
        else:
            # entries arrive sorted by key: hash distinct keys to ranges
            w.line(f"for (int64_t e = 0; e < B{i}_m[0]; e++) {{")
            w.push()
            same = " && ".join(
                f"B{i}_ek{p}[e] == B{i}_ek{p}[e-1]" for p in range(kparts)
            )
            w.line(f"if (e > 0 && {same}) continue;")
            w.line(f"int64_t hi = e + 1;")
            cont = " && ".join(
                f"B{i}_ek{p}[hi] == B{i}_ek{p}[e]" for p in range(kparts)
            )
            w.line(f"while (hi < B{i}_m[0] && {cont}) hi++;")
            parts = " ^ ".join(
                f"lmfao_mix((uint64_t)B{i}_ek{p}[e] + {p})" for p in range(kparts)
            )
            w.line(f"uint64_t h = ({parts}) & (uint64_t)B{i}_mask;")
            w.line(f"while (B{i}_occ[h]) h = (h + 1) & (uint64_t)B{i}_mask;")
            w.line(f"B{i}_occ[h] = 1;")
            for p in range(kparts):
                w.line(f"B{i}_k{p}[h] = B{i}_ek{p}[e];")
            w.line(f"B{i}_lo[h] = e; B{i}_hi[h] = hi;")
            w.pop()
            w.line("}")

    # ---------------- schedules (the shared lowering) -----------------------
    # Per-level probe/γ/β/emission placement comes from repro.core.lowering
    # — the same LoweredPlan the Python generator and the NumPy backend
    # consume. Term hoisting stays local (C consts, always on).
    term_vars: dict[tuple, tuple[str, str]] = {}
    hoisted_at: dict[int, list[tuple[str, str]]] = {}
    counter = [0]

    def term_expr(term: Term) -> str:
        if isinstance(term, ViewTerm):
            i = binding_index[term.view]
            width = binding_by_view[term.view].num_aggregates
            return f"B{i}_ev[sl_B{i} * {width} + {term.agg_index}]"
        if isinstance(term, SubSumTerm):
            return f"ss_{term.block}_{term.agg_index}"
        if isinstance(term, FactorTerm):
            base = f"{farr_var[(term.level, term.attr, term.func_name)]}[r{term.level}]"
        elif isinstance(term, CountTerm):
            if term.level < 0:
                base = "(double)NROWS"
            else:
                base = (
                    f"(double)(L{term.level}_re[r{term.level}] - "
                    f"L{term.level}_rs[r{term.level}])"
                )
        elif isinstance(term, RowSumTerm):
            pv = psum_var[term.product]
            if term.level < 0:
                base = f"{pv}[NROWS]"
            else:
                base = (
                    f"({pv}[L{term.level}_re[r{term.level}]] - "
                    f"{pv}[L{term.level}_rs[r{term.level}]])"
                )
        else:  # pragma: no cover
            raise PlanError(f"unknown term {term!r}")
        cached = term_vars.get(term.sig)
        if cached is None:
            var = f"t{counter[0]}"
            counter[0] += 1
            term_vars[term.sig] = (var, base)
            hoisted_at.setdefault(term.level, []).append((var, base))
            cached = (var, base)
        return cached[0]

    gamma_exprs = {n.id: [term_expr(t) for t in n.terms] for n in plan.gammas}
    beta_exprs = {n.id: [term_expr(t) for t in n.terms] for n in plan.betas}

    def slot_value(slot: EmissionSlot) -> str:
        pieces = []
        if slot.gamma is not None:
            pieces.append(f"g{slot.gamma}")
        if slot.beta is not None:
            pieces.append(f"b{slot.beta}")
        for cf in slot.carried_factors:
            width = block_binding[cf.block].num_aggregates
            i = binding_index[block_binding[cf.block].view]
            pieces.append(f"B{i}_ev[e{cf.block} * {width} + {cf.agg_index}]")
        return " * ".join(pieces) if pieces else "1.0"

    def emit_body(level: int) -> None:
        for var, expr in hoisted_at.get(level, ()):
            w.line(f"const double {var} = {expr};")
        for node in lowered.level(level).gammas:
            exprs = list(gamma_exprs[node.id])
            if node.parent is not None:
                exprs = [f"g{node.parent}"] + exprs
            w.line(f"const double g{node.id} = {' * '.join(exprs)};")
        for node in lowered.level(level).beta_inits:
            w.line(f"double b{node.id} = 0.0;")

    def emit_tail(level: int) -> None:
        schedule = lowered.level(level)
        for node in schedule.beta_accums:
            exprs = list(beta_exprs[node.id])
            if node.child is not None:
                exprs.append(f"b{node.child}")
            w.line(f"b{node.id} += {' * '.join(exprs)};")
        for le in schedule.aligned_emissions:
            _emit_output(w, plan, blocks, le.index, le.emission, le.emission.slots,
                         slot_value)
        for group in schedule.slot_groups:
            _emit_output(w, plan, blocks, group.emission_index, group.emission,
                         group.slots, slot_value)

    def emit_probes(level: int) -> None:
        for binding in lowered.level(level).probes:
            i = binding_index[binding.view]
            kparts = len(binding.key)
            parts = " ^ ".join(
                f"lmfao_mix((uint64_t)v{binding.key_levels[p]} + {p})"
                for p in range(kparts)
            )
            w.line(f"int64_t sl_B{i} = -1, hi_B{i} = -1;")
            w.line("{")
            w.push()
            w.line(f"uint64_t h = ({parts}) & (uint64_t)B{i}_mask;")
            w.line(f"while (B{i}_occ[h]) {{")
            w.push()
            match = " && ".join(
                f"B{i}_k{p}[h] == v{binding.key_levels[p]}" for p in range(kparts)
            )
            w.line(
                f"if ({match}) {{ sl_B{i} = B{i}_lo[h]; hi_B{i} = B{i}_hi[h]; break; }}"
            )
            w.line(f"h = (h + 1) & (uint64_t)B{i}_mask;")
            w.pop()
            w.line("}")
            w.pop()
            w.line("}")
            w.line(f"if (sl_B{i} < 0) continue;")
            if binding.is_carried:
                subs = lowered.block_subsums(binding.block)
                if subs:
                    for term in subs:
                        w.line(f"double ss_{term.block}_{term.agg_index} = 0.0;")
                    width = binding.num_aggregates
                    w.line(
                        f"for (int64_t e = sl_B{i}; e < hi_B{i}; e++) {{"
                    )
                    w.push()
                    for term in subs:
                        w.line(
                            f"ss_{term.block}_{term.agg_index} += "
                            f"B{i}_ev[e * {width} + {term.agg_index}];"
                        )
                    w.pop()
                    w.line("}")
            else:
                w.line(f"(void)hi_B{i};")

    def emit_loops(level: int) -> None:
        if level >= num_rel:
            return
        if level == 0:
            w.line("for (int64_t r0 = 0; r0 < NRUNS_P[0]; r0++) {")
        else:
            w.line(
                f"for (int64_t r{level} = L{level-1}_cs[r{level-1}]; "
                f"r{level} < L{level-1}_ce[r{level-1}]; r{level}++) {{"
            )
        w.push()
        w.line(f"const int64_t v{level} = L{level}_vals[r{level}]; (void)v{level};")
        emit_probes(level)
        emit_body(level)
        emit_loops(level + 1)
        emit_tail(level)
        w.pop()
        w.line("}")

    emit_body(-1)
    emit_loops(0)
    emit_tail(-1)
    for le in lowered.scalar_emissions:
        for j, slot in enumerate(le.emission.slots):
            w.line(f"O{le.index}_v[{j}] = {slot_value(slot)};")
    w.line("return 0;")

    unpack = "\n".join(
        f"    {spec.ctype} {spec.name} = ({spec.ctype})a[{i}];"
        for i, spec in enumerate(args)
    )
    source = f"int32_t {symbol}(void** a) {{\n{unpack}\n" + w.text() + "}\n"
    return source, args


def _emit_output(w, plan, blocks, index, emission, slots, slot_value) -> None:
    first = slots[0]
    width = emission.width
    guarded = first.support is not None
    if guarded:
        w.line(f"if (b{first.support} > 0) {{")
        w.push()

    # nested entry loops over keyed carried blocks
    binding_of_block = {cb.index: cb for cb in plan.carried_blocks}
    for block in first.key_blocks:
        i = next(
            j for j, b in enumerate(plan.bindings)
            if b.view == binding_of_block[block].view
        )
        w.line(f"for (int64_t e{block} = sl_B{i}; e{block} < hi_B{i}; e{block}++) {{")
        w.push()

    def key_expr(part) -> str:
        if part.kind == "rel":
            return f"v{part.level}"
        return f"CB{part.level}_c{part.pos}[e{part.level}]"

    key_exprs = [key_expr(p) for p in first.key_parts]
    if emission.aligned:
        w.line("{")
        w.push()
        w.line(f"const int64_t n = O{index}_n[0];")
        for p, expr in enumerate(key_exprs):
            w.line(f"O{index}_k{p}[n] = {expr};")
        for slot in slots:
            w.line(f"O{index}_v[n * {width} + {slot.slot}] = {slot_value(slot)};")
        w.line(f"O{index}_n[0] = n + 1;")
        w.pop()
        w.line("}")
    else:
        w.line("{")
        w.push()
        parts = " ^ ".join(
            f"lmfao_mix((uint64_t)({expr}) + {p})" for p, expr in enumerate(key_exprs)
        )
        w.line(f"const int64_t mask = O{index}_mask_p[0];")
        w.line(f"uint64_t h = ({parts}) & (uint64_t)mask;")
        w.line("while (1) {")
        w.push()
        w.line(f"if (!O{index}_occ[h]) {{")
        w.push()
        w.line(f"if (2 * (O{index}_n[0] + 1) > mask + 1) return 1;")
        w.line(f"O{index}_occ[h] = 1;")
        for p, expr in enumerate(key_exprs):
            w.line(f"O{index}_k{p}[h] = {expr};")
        w.line(f"for (int j = 0; j < {width}; j++) O{index}_v[h * {width} + j] = 0.0;")
        w.line(f"O{index}_n[0]++;")
        w.line("break;")
        w.pop()
        w.line("}")
        match = " && ".join(
            f"O{index}_k{p}[h] == ({expr})" for p, expr in enumerate(key_exprs)
        )
        w.line(f"if ({match}) break;")
        w.line("h = (h + 1) & (uint64_t)mask;")
        w.pop()
        w.line("}")
        for slot in slots:
            w.line(f"O{index}_v[h * {width} + {slot.slot}] += {slot_value(slot)};")
        w.pop()
        w.line("}")

    for _block in first.key_blocks:
        w.pop()
        w.line("}")
    if guarded:
        w.pop()
        w.line("}")


# ---------------------------------------------------------------------------
# compilation and execution
# ---------------------------------------------------------------------------


def _next_pow2(n: int) -> int:
    size = 8
    while size < n:
        size <<= 1
    return size


class CCompiledGroup:
    """One plan compiled to native code, with its marshaling logic."""

    def __init__(self, plan: MultiOutputPlan, symbol: str, args: list[_ArgSpec],
                 source: str) -> None:
        self.plan = plan
        self.symbol = symbol
        self.args = args
        self.source = source
        self.fn = None  # bound by compile_c_groups

    # ------------------------------------------------------------- marshaling
    def prepare_bindings(self, view_data, view_group_by, memo=None) -> dict:
        """Entry arrays for every binding, marshalled once per group.

        Partitioned execution shares the returned dict (read-only numpy
        arrays — the generated C takes them as ``const``) across all
        concurrent per-partition calls; only the hash-table scratch buffers
        are per-call, which keeps the generated functions reentrant.
        ``memo`` (a :class:`repro.core.runtime.BindingMemo`) reuses the
        arrays of views an earlier run of this group already marshalled.
        """
        entries = {}
        for binding in self.plan.bindings:
            data = view_data[binding.view]
            group_by = view_group_by[binding.view]
            entries[binding.view] = prepared_binding(
                memo, "c", binding.view, data,
                lambda b=binding, g=group_by, d=data: self._binding_entries(b, g, d),
            )
        return entries

    @staticmethod
    def _binding_entries(binding, group_by, data):
        """Entry arrays for one binding: key part cols, carried cols, aggs.

        Carried bindings are sorted by their local key so the generated
        prologue can hash distinct keys to contiguous ranges.
        """
        m = len(data)
        key_positions = [group_by.index(a) for a in binding.key]
        carried_positions = [group_by.index(a) for a in binding.carried]
        vals = np.asarray(list(data.values()), dtype=np.float64).reshape(
            m, binding.num_aggregates
        )
        if len(group_by) == 1:
            keys = np.fromiter(data.keys(), dtype=np.int64, count=m).reshape(m, 1)
        else:
            keys = np.asarray(list(data.keys()), dtype=np.int64).reshape(
                m, len(group_by)
            )
        key_cols = [np.ascontiguousarray(keys[:, p]) for p in key_positions]
        carried_cols = [np.ascontiguousarray(keys[:, p]) for p in carried_positions]
        if binding.is_carried and m > 1:
            order = np.lexsort(tuple(reversed(key_cols)))
            key_cols = [c[order] for c in key_cols]
            carried_cols = [c[order] for c in carried_cols]
            vals = vals[order]
        return key_cols, carried_cols, np.ascontiguousarray(vals)

    def execute(
        self,
        trie: TrieIndex,
        view_data: Mapping[str, dict],
        view_group_by: Mapping[str, tuple[str, ...]],
        functions: Mapping[str, Function],
        bind_entries: dict | None = None,
    ) -> dict[str, dict]:
        if self.fn is None:
            raise PlanError("C group not loaded")
        plan = self.plan

        if bind_entries is None:
            bind_entries = self.prepare_bindings(view_data, view_group_by)
        run_counts = np.array(
            [trie.level(k).num_runs for k in range(len(plan.relation_levels))]
            or [0],
            dtype=np.int64,
        )

        capacity_boost = 1
        for _attempt in range(24):
            outputs = self._attempt(
                trie, plan, bind_entries, view_data, functions, run_counts,
                capacity_boost,
            )
            if outputs is not None:
                return outputs
            capacity_boost *= 4
        raise PlanError(f"{plan.group_name}: C output tables kept overflowing")

    def _attempt(self, trie, plan, bind_entries, view_data, functions, run_counts,
                 capacity_boost):
        holders: list[np.ndarray] = []
        argv = (ctypes.c_void_p * len(self.args))()

        def put(i: int, array: np.ndarray) -> None:
            holders.append(array)
            argv[i] = array.ctypes.data

        def bind_capacity(view: str) -> int:
            return _next_pow2(2 * max(1, len(view_data[view])))

        out_buffers: dict[int, dict] = {}

        def out_capacity(index: int) -> int:
            emission = plan.emissions[index]
            mode = _emission_mode(emission)
            if mode == "scalar":
                return 1
            host = max(s.level for s in emission.slots)
            runs = trie.level(host).num_runs if host >= 0 else 1
            if mode == "append":
                return max(1, runs)
            # The host level's run count bounds the distinct keys but wildly
            # overshoots when the group-by domain is small (e.g. 256 keys
            # under millions of runs); cap the initial table and let the
            # overflow-retry loop grow it for genuinely large outputs.
            return _next_pow2(4 * max(1, min(runs, 65536)) * capacity_boost)

        for i, spec in enumerate(self.args):
            role = spec.role
            kind = role[0]
            if kind == "nrows":
                put(i, np.array([trie.num_rows], dtype=np.int64))
            elif kind == "run_counts":
                put(i, run_counts)
            elif kind == "level":
                _, k, part = role
                level = trie.level(k)
                array = {
                    "vals": level.values,
                    "rs": level.row_start,
                    "re": level.row_end,
                    "cs": level.child_start,
                    "ce": level.child_end,
                }[part]
                put(i, np.ascontiguousarray(array, dtype=np.int64))
            elif kind == "farr":
                # bound-function cache signature, like the other backends:
                # PlanBinding may re-bind the slot name's constant per
                # request while the trie (and its caches) is shared
                _, (k, attr, func_name) = role
                func = functions[func_name]
                put(i, trie.level_function_array(
                    k, f"{func.name}({attr})", func
                ))
            elif kind == "psum":
                _, product = role
                from repro.core.runtime import _product_column, _product_signature

                put(
                    i,
                    trie.prefix_sum(
                        _product_signature(product, functions),
                        _product_column(product, functions),
                    ),
                )
            elif kind == "bind_count":
                put(i, np.array([len(view_data[role[1]])], dtype=np.int64))
            elif kind == "bind_keys":
                put(i, bind_entries[role[1]][0][role[2]])
            elif kind == "bind_carried":
                put(i, bind_entries[role[1]][1][role[2]])
            elif kind == "bind_vals":
                put(i, bind_entries[role[1]][2])
            elif kind == "bind_mask":
                put(i, np.array([bind_capacity(role[1]) - 1], dtype=np.int64))
            elif kind == "bind_occ":
                put(i, np.zeros(bind_capacity(role[1]), dtype=np.int8))
            elif kind in {"bind_tk", "bind_lo", "bind_hi"}:
                # written by the prologue before any read (occ gates reads)
                put(i, np.empty(bind_capacity(role[1]), dtype=np.int64))
            elif kind in {"out_scalar", "out_keys", "out_vals", "out_count",
                          "out_mask", "out_occ"}:
                index = role[1]
                buffers = out_buffers.setdefault(index, {})
                emission = plan.emissions[index]
                width = emission.width
                capacity = out_capacity(index)
                # keys/vals need no zeroing: the generated code writes every
                # slot it later reads (occupancy and counts gate the reads)
                if kind == "out_scalar":
                    array = buffers.setdefault(
                        "vals", np.empty(width, dtype=np.float64)
                    )
                elif kind == "out_keys":
                    array = buffers.setdefault(
                        ("keys", role[2]), np.empty(capacity, dtype=np.int64)
                    )
                elif kind == "out_vals":
                    array = buffers.setdefault(
                        "vals", np.empty(capacity * width, dtype=np.float64)
                    )
                elif kind == "out_count":
                    array = buffers.setdefault("count", np.zeros(1, dtype=np.int64))
                elif kind == "out_mask":
                    array = buffers.setdefault(
                        "mask", np.array([capacity - 1], dtype=np.int64)
                    )
                else:  # out_occ
                    array = buffers.setdefault("occ", np.zeros(capacity, dtype=np.int8))
                put(i, array)
            else:  # pragma: no cover
                raise PlanError(f"unknown argument role {role!r}")

        status = self.fn(argv)
        if status != 0:
            return None

        outputs: dict[str, dict] = {}
        for index, emission in enumerate(plan.emissions):
            mode = _emission_mode(emission)
            buffers = out_buffers[index]
            width = emission.width
            if mode == "scalar":
                outputs[emission.artifact] = {(): list(buffers["vals"])}
                continue
            kparts = len(emission.group_by)
            if mode == "append":
                n = int(buffers["count"][0])
                vals = buffers["vals"][: n * width].reshape(n, width)
                keys = [buffers[("keys", p)][:n] for p in range(kparts)]
            else:
                occ = buffers["occ"].view(bool)
                vals = buffers["vals"].reshape(-1, width)[occ]
                keys = [buffers[("keys", p)][occ] for p in range(kparts)]
            if kparts == 1:
                result = dict(zip(keys[0].tolist(), vals.tolist()))
            else:
                key_rows = list(zip(*(k.tolist() for k in keys)))
                result = dict(zip(key_rows, vals.tolist()))
            outputs[emission.artifact] = result
        return outputs


class _Library:
    """One cache slot: a shared object being compiled or already loaded.

    ``ready`` is set once ``handle`` (the loaded ``ctypes.CDLL``) or
    ``error`` (gcc's diagnostics) is filled in. A slot is created by the
    call that misses its digest; concurrent callers wanting the same
    source wait on ``ready`` instead of running gcc again.
    """

    __slots__ = ("ready", "handle", "error")

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.handle: ctypes.CDLL | None = None
        self.error: str | None = None


#: digest -> slot, for the life of the process (see the module docstring).
_LIBRARIES: dict[str, _Library] = {}
_LIBRARIES_LOCK = threading.Lock()


def _source_digest(source: str) -> str:
    text = _PRELUDE + source + " ".join(_GCC_FLAGS)
    return hashlib.sha1(text.encode()).hexdigest()


def _build(misses: dict[str, tuple[_Library, CCompiledGroup]]) -> None:
    """Run gcc once per missed digest, in parallel, and fill the slots.

    Task-parallel compilation mirrors how the published system hides its
    g++ latency: the biggest group's translation unit still dominates.
    The shared objects live in a per-call temporary directory that is
    deleted as soon as every object is mapped: the loaded handles keep
    the code alive. A slot left without a handle (gcc failed, or the
    build itself raised) leaves the cache, so the next call retries,
    before its waiters wake.
    """
    try:
        with tempfile.TemporaryDirectory(prefix="lmfao_c_") as tmp:
            processes = []
            for digest, (_, group) in misses.items():
                c_path = Path(tmp) / f"{digest}.c"
                so_path = Path(tmp) / f"{digest}.so"
                c_path.write_text(_PRELUDE + group.source)
                process = subprocess.Popen(
                    ["gcc", *_GCC_FLAGS, "-o", str(so_path), str(c_path)],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
                processes.append((digest, so_path, process))
            for digest, so_path, process in processes:
                slot, group = misses[digest]
                _, stderr = process.communicate()
                if process.returncode != 0:
                    slot.error = f"gcc failed on {group.symbol}:\n{stderr[:4000]}"
                else:
                    slot.handle = ctypes.CDLL(str(so_path))
    finally:
        for digest, (slot, group) in misses.items():
            if slot.handle is None:
                slot.error = slot.error or f"compiling {group.symbol} was interrupted"
                with _LIBRARIES_LOCK:
                    del _LIBRARIES[digest]
            slot.ready.set()


def compile_c_groups(
    plans: Sequence[MultiOutputPlan], attribute_kinds: Mapping[str, str]
) -> list:
    """Lower supported plans to C; unsupported ones stay on Python.

    Returns the native groups in the
    :attr:`~repro.core.engine.CompiledBatch.native_groups` layout, each
    with its ``fn`` bound. The engine's compile step (``backend="c"`` and
    the C candidates of ``backend="auto"``) is the one caller. gcc runs
    only for sources this process has not compiled before.
    """
    if not gcc_available():
        raise PlanError("backend='c' requires gcc on PATH")
    start = time.perf_counter()
    native_groups: list = [None] * len(plans)
    native = []
    for i, plan in enumerate(plans):
        if not supports_plan(plan, attribute_kinds):
            continue
        symbol = f"lmfao_run_g{i}"
        source, args = generate_c_source(plan, symbol)
        group = CCompiledGroup(plan=plan, symbol=symbol, args=args, source=source)
        native_groups[i] = group
        native.append(group)

    slots: list[_Library] = []
    misses: dict[str, tuple[_Library, CCompiledGroup]] = {}
    with _LIBRARIES_LOCK:
        for group in native:
            digest = _source_digest(group.source)
            slot = _LIBRARIES.get(digest)
            if slot is None:
                slot = _LIBRARIES[digest] = _Library()
                misses[digest] = (slot, group)
            slots.append(slot)
    if misses:
        _build(misses)
    for group, slot in zip(native, slots):
        slot.ready.wait()
        if slot.handle is None:
            raise PlanError(slot.error)
        fn = slot.handle[group.symbol]
        fn.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
        fn.restype = ctypes.c_int32
        group.fn = fn
    logger.debug(
        "compiled %d C group(s): %d cache hit(s), %d gcc run(s) in %.3f s",
        len(native),
        len(native) - len(misses),
        len(misses),
        time.perf_counter() - start,
    )
    return native_groups
