"""Per-rule true-positive / false-positive coverage.

Every shipped rule has at least one snippet it must flag and one
closely-related snippet it must not; the seeded regression snippets at
the bottom pin the known hazard classes to exactly the intended rule.
"""

from __future__ import annotations

import pytest

from repro.lint import iter_rules, lint_source


def codes(source: str, path: str = "src/repro/fake/mod.py") -> list[str]:
    return [f.rule for f in lint_source(source, path=path)]


# Each case: (rule code, flagged snippet, clean sibling snippet).
CASES = [
    (
        "RL001",
        "import pathlib\nfiles = list(pathlib.Path('.').glob('*.npz'))\n",
        "import pathlib\nfiles = sorted(pathlib.Path('.').glob('*.npz'))\n",
    ),
    (
        "RL001",
        "import os\nfor name in os.listdir('.'):\n    print(name)\n",
        "import os\nfor name in sorted(os.listdir('.')):\n    print(name)\n",
    ),
    (
        "RL002",
        "fields = list({'temperature', 'baryon_density'})\n",
        "fields = sorted({'temperature', 'baryon_density'})\n",
    ),
    (
        "RL002",
        "for f in {'a', 'b'}:\n    print(f)\n",
        "ok = 'a' in {'a', 'b'}\n",  # membership is order-insensitive
    ),
    (
        "RL003",
        "import numpy as np\nnoise = np.random.normal(size=4)\n",
        "from repro.util.rng import default_rng\n"
        "noise = default_rng(0).normal(size=4)\n",
    ),
    (
        "RL003",
        "import random\nx = random.random()\n",
        "import numpy as np\n"
        "def f(seed):\n"
        "    ok = isinstance(seed, np.random.Generator)\n",  # type check, no call
    ),
    (
        "RL004",
        "import json\ns = json.dumps({'seq': 1})\n",
        "import json\ns = json.dumps({'seq': 1}, sort_keys=True)\n",
    ),
    (
        "RL005",
        "import time\nstamp = time.perf_counter()\n",
        "from repro.util.timer import Timer\nwith Timer() as t:\n    pass\n",
    ),
    (
        "RL006",
        "def mean(xs):\n    return sum(xs) / len(xs)\n",
        "import math\ndef mean(xs):\n    return math.fsum(xs) / len(xs)\n",
    ),
    (
        "RL006",
        "def total(d):\n    return sum(d.values())\n",
        "def total(blocks):\n    return sum(b.nbytes for b in blocks)\n",  # int sum
    ),
    (
        "RL007",
        "try:\n    pass\nexcept Exception:\n    pass\n",
        "try:\n    pass\nexcept (ImportError, OSError):\n    pass\n",
    ),
    (
        "RL007",
        "try:\n    pass\nexcept:\n    pass\n",
        # Broad but transparently re-raised: allowed.
        "try:\n    pass\nexcept Exception:\n    raise\n",
    ),
    (
        "RL008",
        "def run(fields=[]):\n    return fields\n",
        "def run(fields=None):\n    return [] if fields is None else fields\n",
    ),
    (
        "RL009",
        "from repro.compression.sz import SZCompressor\n"
        "comp = SZCompressor(codec='zlib')\n",
        "from repro.compression.api import resolve_compressor\n"
        "comp = resolve_compressor('sz:codec=zlib')\n",
    ),
    (
        "RL010",
        "import time\n\ndef backoff():\n    time.sleep(0.1)\n",
        "from repro.resilience import RetryPolicy\n"
        "def f(op):\n"
        "    return RetryPolicy(max_attempts=3).execute(op, site='source.load')\n",
    ),
    (
        "RL010",
        "def f(op):\n"
        "    while True:\n"
        "        try:\n"
        "            return op()\n"
        "        except Exception:\n"
        "            pass\n",
        # Typed handler with a budget that re-raises: not the
        # keep-going-no-matter-what shape.
        "def f(op, n):\n"
        "    while True:\n"
        "        try:\n"
        "            return op()\n"
        "        except OSError:\n"
        "            n -= 1\n"
        "            if n == 0:\n"
        "                raise\n",
    ),
    (
        "RL012",
        "from repro.telemetry import Counter\n"
        "RETRIES = Counter('retries')\n",
        "from repro import telemetry\n"
        "def note():\n"
        "    telemetry.get_registry().counter('retries').inc()\n",
    ),
    (
        "RL012",
        "rec = {'span_id': 1, 'parent_id': None, 'name': 'compress'}\n",
        # A metric-snapshot-shaped dict is not a span record.
        "rec = {'kind': 'counter', 'name': 'retries', 'value': 3}\n",
    ),
    (
        "RL013",
        "import pickle\nblob = pickle.dumps(comp)\n",
        "import json\nblob = json.dumps(comp.spec.to_dict(), sort_keys=True)\n",
    ),
    (
        "RL013",
        "import numpy as np\nmeta = np.load(path, allow_pickle=True)['__meta']\n",
        "import numpy as np\nmeta = np.load(path, allow_pickle=False)['__meta']\n",
    ),
    (
        "RL014",
        "import numpy as np\nsum_sq = float(d @ d)\n",
        "import numpy as np\nsum_sq = float(np.einsum('i,i->', d, d))\n",
    ),
    (
        "RL014",
        "import numpy as np\nslope, icpt = np.polyfit(x, y, 1)\n",
        "import numpy as np\nslope = np.cov(x, y)[0, 1] / np.var(x)\n",
    ),
]


@pytest.mark.parametrize(
    "code,bad,good",
    CASES,
    ids=[f"{code}-{i}" for i, (code, _, _) in enumerate(CASES)],
)
def test_true_positive_and_false_positive(code, bad, good):
    assert code in codes(bad), f"{code} missed its true positive"
    assert code not in codes(good), f"{code} flagged its clean sibling"


class TestSeededHazardClasses:
    """The known hazard classes hit exactly the intended rule."""

    def test_unsorted_glob_is_rl001_only(self):
        snippet = (
            "from pathlib import Path\n"
            "paths = [p.name for p in Path('run').glob('snapshot_*.npz')]\n"
        )
        assert codes(snippet) == ["RL001"]

    def test_global_rng_is_rl003_only(self):
        snippet = "import numpy as np\nfield = np.random.rand(16, 16, 16)\n"
        assert codes(snippet) == ["RL003"]

    def test_noncanonical_json_is_rl004_only(self):
        snippet = (
            "import json\n"
            "def to_json(event):\n"
            "    return json.dumps({'seq': event.seq, 'data': event.data})\n"
        )
        assert codes(snippet) == ["RL004"]


class TestRuleEdges:
    def test_rl001_aliased_glob_module(self):
        assert "RL001" in codes("import glob as g\nnames = list(g.glob('*.py'))\n")

    def test_rl001_order_insensitive_consumers_ok(self):
        src = "import os\nn = len(os.listdir('.'))\nall_py = set(os.listdir('.'))\n"
        assert codes(src) == []

    def test_rl002_join_and_starred(self):
        assert "RL002" in codes("s = ','.join({'a', 'b'})\n")
        assert "RL002" in codes("def f(*a):\n    pass\nf(*{'a', 'b'})\n")

    def test_rl002_listcomp_over_set(self):
        assert "RL002" in codes("xs = [x for x in {'a', 'b'}]\n")

    def test_rl003_from_import_alias(self):
        assert "RL003" in codes("from numpy import random as nr\nx = nr.rand(3)\n")
        assert "RL003" in codes("from random import shuffle\nshuffle([1, 2])\n")

    def test_rl003_exempt_in_util_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert codes(src, path="src/repro/util/rng.py") == []
        assert codes(src) == ["RL003"]

    def test_rl004_sort_keys_must_be_literal_true(self):
        assert "RL004" in codes("import json\njson.dumps({}, sort_keys=False)\n")
        flagged = codes("import json\njson.dumps({}, sort_keys=flag)\n")
        assert "RL004" in flagged  # non-literal: cannot prove canonical

    def test_rl004_dynamic_kwargs_skipped(self):
        assert codes("import json\njson.dumps({}, **kw)\n") == []

    def test_rl005_exempt_in_util_timer(self):
        src = "import time\nt = time.perf_counter()\n"
        assert codes(src, path="src/repro/util/timer.py") == []

    def test_rl006_mean_over_attribute(self):
        src = "class A:\n    def m(self):\n        return sum(self._r) / 3\n"
        assert "RL006" in codes(src)

    def test_rl006_float_elements_in_genexp(self):
        assert "RL006" in codes("t = sum(x / 2 for x in xs)\n")
        assert codes("t = sum(len(x) for x in xs)\n") == []

    def test_rl007_tuple_containing_exception(self):
        assert "RL007" in codes(
            "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        )

    def test_rl008_kwonly_and_call_defaults(self):
        assert "RL008" in codes("def f(*, xs=list()):\n    pass\n")
        assert "RL008" in codes("g = lambda xs={}: xs\n")
        assert codes("def f(xs=()):\n    pass\n") == []  # tuple is immutable

    def test_rl009_exempt_inside_compression_package(self):
        src = (
            "from repro.compression.sz import SZCompressor\n"
            "comp = SZCompressor()\n"
        )
        assert codes(src, path="src/repro/compression/api.py") == []
        assert codes(src, path="src/repro/core/selection.py") == ["RL009"]

    def test_rl009_local_class_of_same_name_ok(self):
        src = "class SZCompressor:\n    pass\ncomp = SZCompressor()\n"
        assert codes(src) == []

    def test_rl010_exempt_inside_resilience_package(self):
        src = "import time\n\ndef backoff(d):\n    time.sleep(d)\n"
        assert codes(src, path="src/repro/resilience/retry.py") == []
        assert codes(src, path="src/repro/stream/source.py") == ["RL010"]

    def test_rl010_aliased_sleep_and_bare_except_loop(self):
        assert "RL010" in codes("from time import sleep\nsleep(1)\n")
        loop = (
            "def f(op):\n"
            "    while True:\n"
            "        try:\n"
            "            return op()\n"
            "        except:\n"
            "            continue\n"
        )
        assert "RL010" in codes(loop)

    def test_rl011_only_fires_in_the_batched_front(self):
        src = (
            "import numpy as np\n"
            "def encode(arrs):\n"
            "    for arr in arrs:\n"
            "        scratch = np.empty(arr.shape, dtype=np.int64)\n"
        )
        assert codes(src, path="src/repro/compression/sz.py") == ["RL011"]
        assert codes(src, path="src/repro/compression/huffman.py") == ["RL011"]
        assert codes(src, path="src/repro/compression/quantizer.py") == ["RL011"]
        assert codes(src, path="src/repro/compression/lorenzo.py") == ["RL011"]
        # Outside the front's four modules allocation is not policed.
        assert codes(src, path="src/repro/compression/zfp_like.py") == []
        assert codes(src) == []

    def test_rl011_one_allocation_per_pass_is_the_clean_form(self):
        src = (
            "import numpy as np\n"
            "def encode(arrs, n):\n"
            "    scratch = np.empty((len(arrs), n), np.int64)\n"
            "    for row, arr in zip(scratch, arrs):\n"
            "        np.copyto(row, arr.reshape(-1))\n"
        )
        assert codes(src, path="src/repro/compression/sz.py") == []

    def test_rl011_fresh_allocation_in_the_fronts_comprehension(self):
        src = (
            "import numpy as np\n"
            "def _map_batch(arrs):\n"
            "    return [np.zeros(a.shape) for a in arrs]\n"
        )
        assert codes(src, path="src/repro/compression/sz.py") == ["RL011"]

    @pytest.mark.parametrize(
        "call", ["np.empty(n)", "np.zeros(n)", "np.ones(n)", "np.full(n, 7)"]
    )
    def test_rl011_flags_each_allocator_in_a_loop(self, call):
        src = (
            "import numpy as np\n"
            "def encode(arrs, n):\n"
            "    for arr in arrs:\n"
            f"        scratch = {call}\n"
        )
        assert codes(src, path="src/repro/compression/sz.py") == ["RL011"]

    @pytest.mark.parametrize(
        "body",
        [
            "    while n:\n        n -= 1\n        buf = np.empty(n)\n",
            "    return {np.zeros(a.shape).size for a in arrs}\n",
            "    return {i: np.zeros(a.shape) for i, a in enumerate(arrs)}\n",
            "    return sum(np.ones(a.shape).sum() for a in arrs)\n",
        ],
        ids=["while", "set-comprehension", "dict-comprehension", "generator"],
    )
    def test_rl011_flags_every_loop_form(self, body):
        src = "import numpy as np\ndef encode(arrs, n):\n" + body
        assert codes(src, path="src/repro/compression/huffman.py") == ["RL011"]

    @pytest.mark.parametrize(
        "header, call",
        [("import numpy\n", "numpy.empty(n)"), ("from numpy import zeros\n", "zeros(n)")],
        ids=["module", "from-import"],
    )
    def test_rl011_resolves_how_numpy_is_imported(self, header, call):
        src = header + f"def encode(arrs, n):\n    for arr in arrs:\n        b = {call}\n"
        assert codes(src, path="src/repro/compression/sz.py") == ["RL011"]

    def test_rl011_a_function_defined_in_a_loop_is_its_own_scope(self):
        src = (
            "import numpy as np\n"
            "def outer(shapes):\n"
            "    for shape in shapes:\n"
            "        def make():\n"
            "            return np.zeros(shape)\n"
        )
        assert codes(src, path="src/repro/compression/sz.py") == []

    def test_rl011_covers_the_group_decoder(self):
        # The chunk decoder allocates its lattice once per pass; its one
        # allocation inside a loop (a buffer per stored width, whose
        # dtype that width sets) is disabled with its reason, and the
        # rule fires on it without the disable.
        import inspect

        from repro.compression import sz

        src = inspect.getsource(sz)
        start = src.index("def _decompress_chunk(")
        src = "import numpy as np\n\n" + src[start:]
        assert src.count("np.empty((n_blocks, n), np.int64)") == 1
        disable = "  # repro-lint: disable=RL011"
        assert src.count(disable) == 1
        assert codes(src, path="src/repro/compression/sz.py") == []
        bare = src.replace(disable, "")
        assert codes(bare, path="src/repro/compression/sz.py") == ["RL011"]
        # A lattice allocated per width run instead of once per chunk.
        slab = "dst = lattice[lo : lo + len(run)]"
        assert src.count(slab) == 1
        per_run = src.replace(slab, "dst = np.empty((len(run), n), np.int64)")
        assert codes(per_run, path="src/repro/compression/sz.py") == ["RL011"]

    def test_rl011_covers_the_lattice_allocation(self):
        """The quantize step allocates the chunk's lattice once, at the
        width it picks; one per row is the defect."""
        clean = (
            "import numpy as np\n"
            "def quantize_lattice_batch(work):\n"
            "    np.rint(work, out=work)\n"
            "    lattice = np.empty(work.shape, np.int32)\n"
            "    np.copyto(lattice, work, casting='unsafe')\n"
            "    return lattice\n"
        )
        per_row = (
            "import numpy as np\n"
            "def quantize_lattice_batch(work):\n"
            "    np.rint(work, out=work)\n"
            "    rows = []\n"
            "    for row in work:\n"
            "        lattice = np.empty(row.shape, np.int32)\n"
            "        np.copyto(lattice, row, casting='unsafe')\n"
            "        rows.append(lattice)\n"
            "    return rows\n"
        )
        path = "src/repro/compression/quantizer.py"
        assert codes(clean, path=path) == []
        assert codes(per_row, path=path) == ["RL011"]

    def test_rl011_covers_the_lorenzo_buffer_handoff(self):
        """The transform ping-pongs between the caller's two buffers and
        hands back the one holding the result; a fresh buffer per axis
        is the defect."""
        clean = (
            "import numpy as np\n"
            "def transform(arr, axes, scratch):\n"
            "    src, dst = arr, scratch.reshape(arr.shape)\n"
            "    for axis in axes:\n"
            "        np.subtract(src[1:], src[:-1], out=dst[1:])\n"
            "        src, dst = dst, src\n"
            "    return src\n"
        )
        per_axis = (
            "import numpy as np\n"
            "def transform(arr, axes):\n"
            "    src = arr\n"
            "    for axis in axes:\n"
            "        dst = np.empty(arr.shape, arr.dtype)\n"
            "        np.subtract(src[1:], src[:-1], out=dst[1:])\n"
            "        src = dst\n"
            "    return src\n"
        )
        path = "src/repro/compression/lorenzo.py"
        assert codes(clean, path=path) == []
        assert codes(per_axis, path=path) == ["RL011"]

    def test_rl011_per_block_compress_loop(self):
        src = (
            "class C:\n"
            "    def _compress_groups(self, views, ebs):\n"
            "        return [self.compress(v, e) for v, e in zip(views, ebs)]\n"
        )
        assert codes(src, path="src/repro/compression/sz.py") == ["RL011"]

    def test_rl011_single_dispatch_call_not_flagged(self):
        # One call outside a loop IS the batched path's entry point.
        src = (
            "class C:\n"
            "    def _compress_one(self, data, eb):\n"
            "        return self._inner.compress(data, eb)\n"
        )
        assert codes(src, path="src/repro/compression/sz.py") == []

    def test_rl010_bounded_while_not_flagged(self):
        # The loop condition itself bounds the attempts — not `while True`.
        src = (
            "def f(op, n):\n"
            "    while n:\n"
            "        n -= 1\n"
            "        try:\n"
            "            return op()\n"
            "        except Exception:\n"
            "            raise\n"
        )
        assert "RL010" not in codes(src)

    @pytest.mark.parametrize(
        "src",
        [
            "import pickle\n",
            "import pickle as pk\n",
            "from pickle import loads\n",
            "import _pickle\n",
            "import cloudpickle\n",
            "import dill\n",
            "import numpy as np\nnp.load(p, None, True)\n",
            # Non-literal: cannot prove it refuses.
            "import numpy as np\nnp.load(p, allow_pickle=flag)\n",
            "from numpy import load\nload(p, allow_pickle=True)\n",
        ],
    )
    def test_rl013_flags(self, src):
        assert codes(src) == ["RL013"]

    @pytest.mark.parametrize(
        "src",
        [
            "import picklescan_report\n",  # only shares the prefix
            "from .pickle import helper\n",  # package-local module
            "import numpy as np\nnp.load(p)\n",  # the default refuses
            "import numpy as np\nnp.load(p, None, False)\n",
            "import numpy as np\nnp.load(p, mmap_mode='r', allow_pickle=False)\n",
        ],
    )
    def test_rl013_passes(self, src):
        assert codes(src) == []

    @pytest.mark.parametrize(
        "src",
        [
            "x = a @ b\n",
            "a @= b\n",
            "import numpy as np\nc = np.matmul(a, b)\n",
            "import numpy as np\nc = np.dot(a, b)\n",
            "c = a.dot(b)\n",
            "import numpy as np\nn = np.linalg.norm(v)\n",
            "import numpy as np\nq, r = np.linalg.qr(m)\n",
            "from numpy.linalg import lstsq\nsol = lstsq(a, b, rcond=None)\n",
            "from numpy import matmul as mm\nc = mm(a, b)\n",
            "import numpy as np\np = np.polyfit(x, y, 2)\n",
        ],
    )
    def test_rl014_flags(self, src):
        assert codes(src) == ["RL014"]

    @pytest.mark.parametrize(
        "src",
        [
            "import numpy as np\ns = np.einsum('ij,ij->i', e, e)\n",
            "import numpy as np\ns = np.add.reduce(d * d)\n",
            "x = 1  # np.dot(a, b) and a @ b, in a comment\n",
            "doc = 'np.dot(a, b) or a.dot(b) or a @ b, in a string'\n",
            "import numpy as np\nv = np.polyval(p, x)\n",  # evaluation, no solve
            "import numpy as np\nerr = np.linalg.LinAlgError\n",  # no call
            "c = a * b\n",
            "dot = 3\n",
        ],
    )
    def test_rl014_passes(self, src):
        assert codes(src) == []

    def test_rl014_line_pragma_silences_it(self):
        assert codes("s = float(d @ d)  # repro-lint: disable=RL014\n") == []

    def test_rl014_src_sites_are_the_reviewed_ones(self):
        """``src/`` is clean, and its BLAS calls are the reviewed sites,
        each with its pragma: a new one needs its own review."""
        from collections import Counter
        from pathlib import Path

        from repro.lint import run_lint

        src = Path(__file__).resolve().parents[2] / "src"
        assert run_lint([src], select=["RL014"]).findings == []
        sites = Counter(
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            for line in path.read_text().splitlines()
            if "disable=RL014" in line and "repro/lint/" not in path.as_posix()
        )
        assert sites == {
            "repro/analysis/catalog.py": 1,
            "repro/analysis/metrics.py": 2,
            "repro/analysis/spectrum.py": 3,
            "repro/models/calibration.py": 1,
            "repro/models/rate_model.py": 1,
        }

    def test_rl013_line_pragma_silences_it(self):
        assert codes("import pickle  # repro-lint: disable=RL013\n") == []

    @pytest.mark.parametrize(
        "path", ["src/repro/cli.py", "src/repro/compression/container.py"]
    )
    def test_rl013_exempts_nothing(self, path):
        """The reader of the pre-JSON ``__meta`` is gone, and with it
        the one function the rule used to skip."""
        src = (
            "import numpy as np\n"
            "def _legacy_meta_rows(path):\n"
            "    with np.load(path, allow_pickle=True) as data:\n"
            "        return data['__meta']\n"
        )
        assert codes(src, path=path) == ["RL013"]

    def test_rl013_src_never_unpickles(self):
        from pathlib import Path

        from repro.lint import run_lint
        from repro.lint.rules import PickleRule

        src = Path(__file__).resolve().parents[2] / "src"
        assert run_lint([src], select=["RL013"]).findings == []
        assert not hasattr(PickleRule, "_SANCTIONED")
        assert not any(
            "disable=RL013" in path.read_text() or "allow_pickle=True" in path.read_text()
            for path in src.rglob("*.py")
            if "repro/lint/" not in path.as_posix()
        )


def test_every_rule_has_metadata_and_examples():
    rules = iter_rules()
    assert len(rules) >= 8
    for rule in rules:
        assert rule.code and rule.name and rule.summary and rule.rationale
        assert rule.__doc__ and "Bad::" in rule.__doc__ and "Good::" in rule.__doc__
