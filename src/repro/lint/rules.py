"""The rule catalog: repo-specific determinism & contract checks.

Every rule documents its rationale (why the pattern threatens
byte-for-byte replay, bitwise backend equivalence, or the compressor
registry contract) plus a minimal bad/good pair; ``docs/lint-rules.md``
is the narrative version of the same catalog.  Rules deliberately err
on the side of few false positives — when one does fire wrongly, a
``# repro-lint: disable=RLxxx`` comment on that line is the escape
hatch, with the comment doubling as the justification record.
"""

from __future__ import annotations

import ast

from repro.lint.engine import ModuleContext, Rule, register_rule

__all__ = [
    "UnsortedFsIterationRule",
    "SetOrderRule",
    "GlobalRngRule",
    "CanonicalJsonRule",
    "WallClockRule",
    "FloatSumRule",
    "BroadExceptRule",
    "MutableDefaultRule",
    "CompressorContractRule",
    "HandRolledRetryRule",
    "HotPathAllocationRule",
    "AdHocTelemetryRule",
    "PickleRule",
    "BlasCallRule",
]

#: Builtins that consume an iterable without depending on its order;
#: wrapping an unordered producer in one of these is fine.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
)


def _is_set_expr(node: ast.AST) -> bool:
    """Set literal / set comprehension / ``set(...)`` or ``frozenset(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def _has_order_insensitive_parent(ctx: ModuleContext, node: ast.AST) -> bool:
    parent = ctx.parent(node)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in _ORDER_INSENSITIVE
        and node in parent.args
    )


@register_rule
class UnsortedFsIterationRule(Rule):
    """RL001 — filesystem iteration order must be pinned with ``sorted``.

    ``glob``/``iterdir``/``listdir`` return entries in arbitrary,
    filesystem-dependent order; feeding that order into snapshot
    schedules or reports makes two runs of the same campaign diverge.

    Bad::

        for path in out_dir.glob("snapshot_*.npz"): ...

    Good::

        for path in sorted(out_dir.glob("snapshot_*.npz")): ...
    """

    code = "RL001"
    name = "unsorted-glob"
    summary = "filesystem iteration without sorted() — entry order is OS-dependent"
    rationale = (
        "glob/iterdir/listdir order depends on the filesystem; DirectoryStream "
        "schedules and CLI batch jobs must pin it with sorted()."
    )

    _MODULE_CALLS = frozenset(
        {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    )
    _METHODS = frozenset({"glob", "rglob", "iterdir"})

    def visit_Call(self, node: ast.Call) -> None:
        target = self.ctx.resolve(node.func)
        hit = target in self._MODULE_CALLS
        if (
            not hit
            and target is None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._METHODS
        ):
            # A `.glob(...)`-shaped method on some object; pathlib in
            # practice.  Objects that merely share the name are rare and
            # can disable the rule on that line.
            hit = True
        if hit and not _has_order_insensitive_parent(self.ctx, node):
            call = target or f"<obj>.{node.func.attr}"  # type: ignore[union-attr]
            self.flag(node, f"{call}() result used without sorted(); {self.summary}")
        self.generic_visit(node)


@register_rule
class SetOrderRule(Rule):
    """RL002 — set iteration order must not escape into ordered output.

    Sets iterate in hash order, which varies with insertion history (and
    with ``PYTHONHASHSEED`` for strings); materializing one into a list,
    loop, or joined string bakes that order into reports and payloads.

    Bad::

        fields = list({"temperature", "baryon_density"})

    Good::

        fields = sorted({"temperature", "baryon_density"})
    """

    code = "RL002"
    name = "set-order"
    summary = "set iteration order escapes into ordered output; wrap in sorted()"
    rationale = (
        "set order is hash-order and PYTHONHASHSEED-dependent; anything "
        "serialized, reduced or reported from it must go through sorted()."
    )

    _ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "reversed"})

    def _flag_set(self, node: ast.AST, how: str) -> None:
        self.flag(node, f"set {how}; {self.summary}")

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in self._ORDER_SENSITIVE_CALLS
            and node.args
            and _is_set_expr(node.args[0])
        ):
            self._flag_set(node.args[0], f"materialized via {node.func.id}()")
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
            and _is_set_expr(node.args[0])
        ):
            self._flag_set(node.args[0], "joined into a string")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._flag_set(node.iter, "iterated by a for loop")
        self.generic_visit(node)

    def _check_comprehension(
        self, node: "ast.ListComp | ast.DictComp"
    ) -> None:
        for gen in node.generators:
            if _is_set_expr(gen.iter):
                self._flag_set(gen.iter, "iterated by an ordered comprehension")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        if _is_set_expr(node.value):
            self._flag_set(node.value, "unpacked positionally")
        self.generic_visit(node)


@register_rule
class GlobalRngRule(Rule):
    """RL003 — RNG access goes through :mod:`repro.util.rng`.

    Calls into the global ``random``/``numpy.random`` state (or ad-hoc
    generator construction) make snapshots, partition layouts and
    compressed bitstreams irreproducible; every stochastic component
    must accept a seed or Generator coerced by ``util.rng.default_rng``.

    Bad::

        noise = np.random.normal(size=n)

    Good::

        noise = default_rng(seed).normal(size=n)
    """

    code = "RL003"
    name = "global-rng"
    summary = "global/unseeded RNG use; route through repro.util.rng"
    rationale = (
        "global RNG state breaks seed->snapshot->bitstream reproducibility; "
        "repro.util.rng.default_rng is the one sanctioned entry point."
    )
    exempt = ("repro/util/rng.py",)

    def visit_Call(self, node: ast.Call) -> None:
        target = self.ctx.resolve(node.func)
        if target is not None and (
            target.startswith("random.") or target.startswith("numpy.random.")
        ):
            self.flag(node, f"{target}() call; {self.summary}")
        self.generic_visit(node)


@register_rule
class CanonicalJsonRule(Rule):
    """RL004 — ``json.dumps`` must pass ``sort_keys=True``.

    Without ``sort_keys`` the serialized bytes follow dict insertion
    order, so a pure refactor reorders ledger lines, report exports and
    (soon) hash-chain inputs.  Hashed or replayed payloads should pass
    compact ``separators=(",", ":")`` as well.

    Bad::

        json.dumps({"seq": seq, "kind": kind})

    Good::

        json.dumps({"seq": seq, "kind": kind}, sort_keys=True,
                   separators=(",", ":"))
    """

    code = "RL004"
    name = "json-canonical"
    summary = "json.dumps without sort_keys=True — dict order leaks into bytes"
    rationale = (
        "ledger events are hashed and replayed byte-for-byte; canonical JSON "
        "(sorted keys, and compact separators on hashed paths) is the contract."
    )

    _TARGETS = frozenset({"json.dumps", "json.dump"})

    def visit_Call(self, node: ast.Call) -> None:
        target = self.ctx.resolve(node.func)
        if target in self._TARGETS:
            dynamic = any(kw.arg is None for kw in node.keywords)
            sort_keys = next(
                (kw for kw in node.keywords if kw.arg == "sort_keys"), None
            )
            canonical = (
                sort_keys is not None
                and isinstance(sort_keys.value, ast.Constant)
                and sort_keys.value.value is True
            )
            if not dynamic and not canonical:
                self.flag(node, f"{target}() without sort_keys=True; {self.summary}")
        self.generic_visit(node)


@register_rule
class WallClockRule(Rule):
    """RL005 — wall-clock reads live in :mod:`repro.util.timer`.

    Scattered ``time.*``/``datetime.now`` reads sneak nondeterministic
    values into results and make overhead accounting inconsistent; the
    ``Timer``/``TimingBreakdown`` wrappers are the sanctioned clock.

    Bad::

        start = time.perf_counter(); ...; elapsed = time.perf_counter() - start

    Good::

        with Timer() as t: ...
        elapsed = t.elapsed
    """

    code = "RL005"
    name = "wall-clock"
    summary = "wall-clock read outside repro.util.timer; use Timer/TimingBreakdown"
    rationale = (
        "timestamps in outputs are nondeterministic by construction; "
        "confining clock reads to util.timer keeps them out of data paths "
        "and the overhead accounting uniform."
    )
    exempt = ("repro/util/timer.py",)

    _CLOCKS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        target = self.ctx.resolve(node.func)
        if target in self._CLOCKS:
            self.flag(node, f"{target}() call; {self.summary}")
        self.generic_visit(node)


@register_rule
class FloatSumRule(Rule):
    """RL006 — float accumulation uses ``math.fsum``, not builtin ``sum``.

    Builtin ``sum`` is a left fold whose float result depends on operand
    order — exactly what varies across backends and rank orderings (the
    PR 1 ulp-drift bug class).  ``math.fsum`` is exactly rounded and
    therefore order-independent.  The rule fires on the shapes that are
    float accumulation in this codebase: summing a ``.values()`` view,
    a ``sum(x) / n`` mean, or elements with float-typed arithmetic.

    Bad::

        mean = sum(residuals) / len(residuals)

    Good::

        mean = math.fsum(residuals) / len(residuals)
    """

    code = "RL006"
    name = "float-sum"
    summary = "order-sensitive float accumulation via builtin sum; use math.fsum"
    rationale = (
        "left-fold float addition is order-dependent to the ulp, which breaks "
        "bitwise backend equivalence; math.fsum is exact and order-independent."
    )

    @staticmethod
    def _element_is_floaty(elt: ast.AST) -> bool:
        for sub in ast.walk(elt):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "float"
            ):
                return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and len(node.args) >= 1
        ):
            arg = node.args[0]
            values_view = (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "values"
                and not arg.args
            )
            parent = self.ctx.parent(node)
            mean_shape = (
                isinstance(parent, ast.BinOp)
                and isinstance(parent.op, ast.Div)
                and parent.left is node
                and isinstance(arg, (ast.Name, ast.Attribute))
            )
            floaty_elements = isinstance(
                arg, (ast.GeneratorExp, ast.ListComp)
            ) and self._element_is_floaty(arg.elt)
            if values_view or mean_shape or floaty_elements:
                self.flag(node)
        self.generic_visit(node)


@register_rule
class BroadExceptRule(Rule):
    """RL007 — no bare or blanket exception handlers.

    ``except Exception`` (and worse, bare ``except:``, which also eats
    ``KeyboardInterrupt``/``SystemExit``) converts unexpected states
    into silently wrong results — in this system, into silently
    non-reproducible ones.  Handlers must name the exception types the
    code actually expects; a handler that re-raises as-is is allowed.

    Bad::

        try: resource_tracker.unregister(name)
        except Exception: pass

    Good::

        try: resource_tracker.unregister(name)
        except (ImportError, AttributeError, OSError): pass
    """

    code = "RL007"
    name = "broad-except"
    summary = "bare/broad exception handler; catch the specific expected types"
    rationale = (
        "blanket handlers swallow the very anomalies the replay/equivalence "
        "guarantees exist to surface, and bare except also eats "
        "KeyboardInterrupt/SystemExit."
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in self._BROAD

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.flag(node, f"bare except; {self.summary}")
        else:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            reraises = any(
                isinstance(sub, ast.Raise) and sub.exc is None
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if any(self._is_broad(t) for t in types) and not reraises:
                self.flag(node)
        self.generic_visit(node)


@register_rule
class MutableDefaultRule(Rule):
    """RL008 — no mutable default arguments.

    A mutable default is created once and shared across calls; state
    leaking between campaign runs through a default list/dict is a
    classic source of run-order-dependent results.

    Bad::

        def run(self, fields=[]): ...

    Good::

        def run(self, fields=None):
            fields = [] if fields is None else fields
    """

    code = "RL008"
    name = "mutable-default"
    summary = "mutable default argument is shared across calls; default to None"
    rationale = (
        "a shared default accumulates state across calls, making results "
        "depend on call history rather than inputs."
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "deque"})

    def _check_defaults(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda"
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CALLS
            )
            if mutable:
                self.flag(default)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


@register_rule
class CompressorContractRule(Rule):
    """RL009 — compressors come from the registry, not direct construction.

    PR 5 funnelled every layer through
    :func:`repro.compression.api.resolve_compressor` so specs stay
    serializable (ledger schema v2 records them) and capability holes
    fail with a typed error.  Direct class construction outside the
    compression package bypasses both guarantees.

    Bad::

        comp = SZCompressor(codec="zlib")

    Good::

        comp = resolve_compressor("sz:codec=zlib")
    """

    code = "RL009"
    name = "compressor-contract"
    summary = (
        "direct compressor construction bypasses resolve_compressor and "
        "the registry's capability checks"
    )
    rationale = (
        "specs resolved by the registry are serializable (ledger schema v2) "
        "and capability-checked; ad-hoc instances are neither."
    )
    exempt = ("repro/compression/",)

    _CLASSES = frozenset(
        {"SZCompressor", "AdaptiveSZCompressor", "ZFPLikeCompressor"}
    )

    def visit_Call(self, node: ast.Call) -> None:
        target = self.ctx.resolve(node.func)
        if target is not None:
            leaf = target.rsplit(".", 1)[-1]
            if leaf in self._CLASSES:
                self.flag(node, f"{leaf}() constructed directly; {self.summary}")
        self.generic_visit(node)


@register_rule
class HandRolledRetryRule(Rule):
    """RL010 — retries and sleeps live in ``repro.resilience``, nowhere else.

    A hand-rolled retry loop — ``time.sleep`` between attempts, or a
    ``while True`` that swallows broad exceptions — has none of the
    properties the stream path's fault-tolerance guarantees rest on: no
    seeded (deterministic) jitter, no attempt budget, no typed
    retryable/fatal classification, and no ``RetryExhaustedError`` for
    the degradation path to catch.  PR 7 centralized all of that in
    :class:`repro.resilience.retry.RetryPolicy`; everything else calls
    it.

    Bad::

        while True:
            try:
                return load_snapshot(path)
            except Exception:
                time.sleep(0.1)

    Good::

        policy = RetryPolicy(max_attempts=3)
        return policy.execute(lambda: load_snapshot(path), site="source.load")
    """

    code = "RL010"
    name = "hand-rolled-retry"
    summary = (
        "time.sleep / hand-rolled retry loop outside repro.resilience; "
        "use RetryPolicy.execute"
    )
    rationale = (
        "ad-hoc retries have unseeded timing, no attempt budget and no typed "
        "classification, so their behaviour (and any timing that leaks into "
        "outputs) is irreproducible; RetryPolicy centralizes all of it."
    )
    exempt = ("repro/resilience/",)

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.resolve(node.func) == "time.sleep":
            self.flag(node, f"time.sleep() call; {self.summary}")
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        # `while True:` whose body catches Exception/BaseException (or
        # everything) without re-raising is the retry-loop shape: keep
        # going no matter what went wrong.
        forever = isinstance(node.test, ast.Constant) and node.test.value is True
        if forever:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.ExceptHandler):
                    continue
                types = (
                    [sub.type]
                    if not isinstance(sub.type, ast.Tuple)
                    else list(sub.type.elts)
                )
                broad = sub.type is None or any(
                    isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
                    for t in types
                )
                reraises = any(
                    isinstance(s, ast.Raise) and s.exc is None
                    for stmt in sub.body
                    for s in ast.walk(stmt)
                )
                if broad and not reraises:
                    self.flag(
                        sub,
                        "while True with a broad except is a hand-rolled "
                        f"retry loop; {self.summary}",
                    )
        self.generic_visit(node)


@register_rule
class HotPathAllocationRule(Rule):
    """RL011 — the batched compression front allocates once per pass.

    The SZ front runs each chunk of blocks as one multi-block pass: its
    scratch is a handful of ``(B, n)`` arrays, allocated once when the
    pass starts and freed when it returns, and its blocks go through the
    batch entry points in one call.  An ``np.empty``/``np.zeros``/
    ``np.ones``/``np.full`` inside a Python loop or comprehension
    allocates per block (or per segment) instead of per pass, and a loop
    that calls ``.compress()`` per block undoes the batching; both keep
    the bytes and only cost throughput.  The rule applies to the four
    modules of that front: ``repro/compression/sz.py``,
    ``repro/compression/huffman.py``, ``repro/compression/quantizer.py``
    (which allocates the chunk's lattice at the width it picks) and
    ``repro/compression/lorenzo.py`` (whose transform hands its
    ping-pong buffer back to the caller); an allocation whose shape or
    dtype changes with each iteration carries a disable comment saying
    so.

    Bad::

        for row, arr in enumerate(arrs):
            scratch = np.empty(arr.shape, dtype=np.int64)

    Good::

        scratch = np.empty((len(arrs), n), dtype=np.int64)
        for row, arr in enumerate(arrs):
            ...  # works in scratch[row]
    """

    code = "RL011"
    name = "hot-path-allocation"
    summary = (
        "array allocation / per-block compress call inside a loop of the "
        "batched compression front"
    )
    rationale = (
        "the batched front allocates its scratch once per pass and "
        "compresses a chunk's blocks in one call; np.empty/zeros/ones/full "
        "in a loop allocates per block, and a per-block compress loop "
        "undoes the batching: hoist the allocation out of the loop and "
        "send blocks through the batch entry points."
    )
    only = (
        "repro/compression/sz.py",
        "repro/compression/huffman.py",
        "repro/compression/quantizer.py",
        "repro/compression/lorenzo.py",
    )

    _ALLOCATORS = frozenset(
        {"numpy.empty", "numpy.zeros", "numpy.ones", "numpy.full"}
    )
    _BLOCK_CALLS = frozenset({"compress"})
    _LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    _SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

    def _inside_loop(self, node: ast.AST) -> bool:
        """Whether a loop of ``node``'s own scope encloses it."""
        cur = self.ctx.parent(node)
        while cur is not None and not isinstance(cur, self._SCOPES):
            if isinstance(cur, self._LOOPS):
                return True
            cur = self.ctx.parent(cur)
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if self._inside_loop(node):
            target = self.ctx.resolve(node.func)
            if target in self._ALLOCATORS:
                self.flag(
                    node,
                    f"{target}() inside a loop; allocate once per pass, "
                    "outside the loop",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._BLOCK_CALLS
            ):
                self.flag(
                    node,
                    f".{node.func.attr}() called per block in a Python "
                    "loop; use the batched compress_many path",
                )
        self.generic_visit(node)


@register_rule
class AdHocTelemetryRule(Rule):
    """RL012 — metrics/spans come from the ``repro.telemetry`` factories.

    Telemetry primitives constructed outside the registry — a
    module-level ``Counter("x")``, a private ``Tracer()``, a
    hand-assembled span dict — are invisible to the exporters, survive
    test resets, and fragment the one process-wide trace the
    observability layer promises.  Inside ``repro/telemetry/`` the
    constructors are the implementation; everywhere else, metrics come
    from ``get_registry().counter/gauge/histogram(...)`` and spans from
    ``get_tracer().span(...)``.

    Bad::

        from repro.telemetry import Counter
        RETRIES = Counter("retries")           # ad-hoc module metric
        rec = {"span_id": 1, "parent_id": 0, "name": "x"}  # bare span dict

    Good::

        telemetry.get_registry().counter("retries").inc()
        with telemetry.get_tracer().span("x"): ...
    """

    code = "RL012"
    name = "ad-hoc-telemetry"
    summary = (
        "telemetry primitive constructed outside the repro.telemetry "
        "factories; use get_registry()/get_tracer()"
    )
    rationale = (
        "metrics and spans not owned by the process registry/tracer never "
        "reach the exporters and cannot be reset between tests; the "
        "get_registry()/get_tracer() factories are the only sanctioned "
        "constructors outside the telemetry package itself."
    )
    exempt = ("repro/telemetry/",)

    _PRIMITIVES = frozenset(
        {
            f"repro.telemetry{mod}.{cls}"
            for mod in ("", ".registry", ".tracer")
            for cls in ("Counter", "Gauge", "Histogram", "Span", "Tracer",
                        "MetricsRegistry")
        }
    )

    #: Key combinations that identify a hand-assembled span record
    #: (the tracer wire format, and the Chrome trace_event shape).
    _SPAN_KEY_SETS = (
        frozenset({"span_id", "parent_id"}),
        frozenset({"ph", "ts", "dur"}),
    )

    def visit_Call(self, node: ast.Call) -> None:
        target = self.ctx.resolve(node.func)
        if target in self._PRIMITIVES:
            self.flag(
                node,
                f"direct {target.rsplit('.', 1)[-1]}(...) construction; "
                f"{self.summary}",
            )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        keys = {
            k.value
            for k in node.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        }
        if any(wanted <= keys for wanted in self._SPAN_KEY_SETS):
            self.flag(
                node,
                "bare span-record dict literal; spans come from "
                "get_tracer().span(...) and export via Tracer.export_spans()",
            )
        self.generic_visit(node)


@register_rule
class PickleRule(Rule):
    """RL013 — stored and shipped state is plain data, never a pickle.

    Unpickling runs whatever code the bytes name, and a pickle's layout
    follows the classes that wrote it, so a refactor can strand stored
    data.  Containers are plain npz with canonical-JSON metadata, ledgers
    are canonical JSON lines and compressors rebuild from their spec;
    none of them needs ``pickle``, and no reader is exempt.

    Bad::

        import pickle
        blob = pickle.dumps(compressor)
        meta = np.load(path, allow_pickle=True)["__meta"]

    Good::

        spec = compressor.spec.to_dict()   # resolve_compressor(spec) rebuilds it
        meta = np.load(path, allow_pickle=False)["__meta"]
    """

    code = "RL013"
    name = "no-pickle"
    summary = "pickle import or np.load(allow_pickle=True); store plain data instead"
    rationale = (
        "unpickling executes code named by the bytes and ties stored data "
        "to class layouts; containers, ledgers and compressor specs are plain "
        "data, and nothing is exempt."
    )

    _MODULES = frozenset({"pickle", "_pickle", "cloudpickle", "dill"})
    #: ``numpy.load``'s ``allow_pickle`` is its third positional parameter.
    _ALLOW_PICKLE_POSITION = 2

    def _check_module(self, node: ast.AST, module: str) -> None:
        if module.split(".", 1)[0] in self._MODULES:
            self.flag(node, f"import of {module}; {self.summary}")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_module(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module:
            self._check_module(node, node.module)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.resolve(node.func) == "numpy.load":
            value = next(
                (kw.value for kw in node.keywords if kw.arg == "allow_pickle"), None
            )
            if value is None and len(node.args) > self._ALLOW_PICKLE_POSITION:
                value = node.args[self._ALLOW_PICKLE_POSITION]
            refused = isinstance(value, ast.Constant) and value.value is False
            if value is not None and not refused:
                self.flag(node, f"numpy.load() that may unpickle; {self.summary}")
        self.generic_visit(node)


@register_rule
class BlasCallRule(Rule):
    """RL014 — every BLAS/LAPACK call is a reviewed site.

    NumPy hands ``@``, ``matmul``, ``dot``, ``linalg`` and ``polyfit``
    (a least-squares solve) to the BLAS it was built with.  How many
    threads that library uses, and which kernel it picks for the host's
    CPU, decide how a reduction is split — hence its last bits — and a
    threaded BLAS keeps a thread pool beside
    :func:`repro.util.fanout.thread_map`'s.  Importing
    :mod:`repro.util.fanout` sets NumPy's OpenBLAS to one thread; each
    call site is still marked, so a new one on a hot or recorded path
    is a decision, not an accident.  ``einsum`` sums in NumPy's own
    order and is not flagged.

    Bad::

        sum_sq = float(d @ d)

    Good::

        # ddot on one BLAS thread (repro.util.fanout): one summation order.
        sum_sq = float(d @ d)  # repro-lint: disable=RL014
    """

    code = "RL014"
    name = "blas-call"
    summary = (
        "BLAS/LAPACK call (@, matmul, dot, linalg, polyfit); mark a reviewed "
        "site with a justified disable comment"
    )
    rationale = (
        "the BLAS's thread count and CPU kernel decide how a reduction is "
        "split, so its last bits; every call site is a reviewed decision "
        "under the process's one-thread BLAS budget."
    )

    _CALLS = frozenset({"numpy.matmul", "numpy.dot", "numpy.polyfit"})

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.MatMult):
            self.flag(node, f"matrix product '@'; {self.summary}")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.MatMult):
            self.flag(node, f"matrix product '@='; {self.summary}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        target = self.ctx.resolve(node.func) or ""
        if target in self._CALLS or target.startswith("numpy.linalg."):
            self.flag(node, f"{target}(); {self.summary}")
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
            self.flag(node, f".dot(); {self.summary}")
        self.generic_visit(node)
