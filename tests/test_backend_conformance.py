"""Primitive-level conformance contract for ``repro.xp`` backends.

Every registered backend is exercised against a plain-numpy reference
on the ~15 array primitives the kernels actually call, over adversarial
inputs: empty arrays, single elements, int64 overflow boundaries,
sorted-with-duplicates searchsorted probes, all-zero bincounts, and
packed-uint64 encoding masks. This is the contract any future
cupy/torch backend must pass before the lockstep suites even make
sense — it pins semantics (dtype, shape, values) primitive by
primitive, where a lockstep failure would only say "stats moved".

The strict backend additionally has its escape-hatch semantics pinned
here: banned implicit transfers raise :class:`~repro.xp.ScalarEscapeError`,
the two sanctioned chokepoints (``to_scalar`` / ``to_numpy``) work, and
lane-local reads (scalar indexing, ``int()``/``bool()`` of 0-d results)
stay permitted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import xp

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min

#: the primitives the kernels lean on hardest; under the default backend
#: each must be numpy's own object, so dispatch costs one attribute lookup
IDENTITY_PRIMITIVES = (
    "asarray", "empty", "zeros", "arange", "concatenate", "searchsorted",
    "cumsum", "bincount", "lexsort", "argsort", "nonzero", "flatnonzero",
    "where", "minimum", "maximum", "repeat", "diff", "unique",
)


def assert_same(got, want):
    """Backend result must match the numpy reference in dtype kind,
    shape, and values (subclass identity is backend-private)."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# construction / conversion
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_asarray_roundtrip(self, backend):
        for src in ([], [5], [3, 1, 2], [INT64_MAX, INT64_MIN]):
            assert_same(xp.asarray(src, dtype=xp.int64), np.asarray(src, dtype=np.int64))

    def test_zeros_empty_arange(self, backend):
        assert_same(xp.zeros(0, dtype=xp.int64), np.zeros(0, dtype=np.int64))
        assert_same(xp.zeros((2, 3), dtype=bool), np.zeros((2, 3), dtype=bool))
        assert xp.empty(4, dtype=xp.int64).shape == (4,)
        assert_same(xp.arange(0, dtype=xp.int64), np.arange(0, dtype=np.int64))
        assert_same(xp.arange(5, dtype=xp.int64), np.arange(5, dtype=np.int64))

    def test_fromiter(self, backend):
        got = xp.fromiter([3, 1, 2], dtype=xp.int64, count=3)
        got.sort()
        assert_same(got, np.asarray([1, 2, 3], dtype=np.int64))

    def test_to_numpy_is_plain_ndarray(self, backend):
        out = xp.to_numpy(xp.asarray([1, 2], dtype=xp.int64))
        assert type(out) is np.ndarray
        assert_same(out, np.asarray([1, 2], dtype=np.int64))

    def test_to_scalar(self, backend):
        assert xp.to_scalar(xp.asarray([7], dtype=xp.int64)[0]) == 7
        assert xp.to_scalar(xp.asarray(INT64_MAX, dtype=xp.int64)) == INT64_MAX
        assert isinstance(xp.to_scalar(xp.asarray(1.5)), float)
        # python scalars pass through untouched
        assert xp.to_scalar(11) == 11


# ---------------------------------------------------------------------------
# searchsorted: the kernel's central primitive
# ---------------------------------------------------------------------------
class TestSearchsorted:
    CASES = [
        # (sorted haystack, probes)
        ([], [0, 5]),
        ([7], [6, 7, 8]),
        ([1, 1, 2, 2, 2, 9], [0, 1, 2, 3, 9, 10]),  # duplicates
        ([INT64_MIN, 0, INT64_MAX], [INT64_MIN, -1, INT64_MAX]),
    ]

    @pytest.mark.parametrize("hay,probes", CASES)
    def test_matches_numpy(self, backend, hay, probes):
        got = xp.searchsorted(
            xp.asarray(hay, dtype=xp.int64), xp.asarray(probes, dtype=xp.int64)
        )
        want = np.searchsorted(
            np.asarray(hay, dtype=np.int64), np.asarray(probes, dtype=np.int64)
        )
        assert_same(got, want)

    def test_side_right(self, backend):
        got = xp.searchsorted(
            xp.asarray([1, 1, 2], dtype=xp.int64),
            xp.asarray([1, 2], dtype=xp.int64),
            side="right",
        )
        assert_same(got, np.asarray([2, 3], dtype=np.intp))


# ---------------------------------------------------------------------------
# reductions and scans
# ---------------------------------------------------------------------------
class TestScans:
    def test_cumsum_int64_boundaries(self, backend):
        a = xp.asarray([INT64_MAX - 1, 1], dtype=xp.int64)
        assert_same(xp.cumsum(a), np.asarray([INT64_MAX - 1, INT64_MAX], dtype=np.int64))
        assert_same(xp.cumsum(xp.asarray([], dtype=xp.int64)), np.zeros(0, dtype=np.int64))

    def test_cumsum_out_param(self, backend):
        # the trace pricer's idiom: cumsum into a zero-prefixed buffer
        per_op = xp.asarray([3, 4, 5], dtype=xp.int64)
        cum = xp.zeros(4, dtype=xp.int64)
        xp.cumsum(per_op, out=cum[1:])
        assert_same(xp.to_numpy(cum), np.asarray([0, 3, 7, 12], dtype=np.int64))

    def test_bincount_all_zero_and_empty(self, backend):
        assert_same(
            xp.bincount(xp.asarray([0, 0, 0], dtype=xp.int64), minlength=4),
            np.bincount(np.asarray([0, 0, 0]), minlength=4),
        )
        assert_same(
            xp.bincount(xp.asarray([], dtype=xp.int64), minlength=3),
            np.bincount(np.asarray([], dtype=np.int64), minlength=3),
        )

    def test_diff_repeat(self, backend):
        a = xp.asarray([0, 2, 2, 7], dtype=xp.int64)
        assert_same(xp.diff(a), np.diff(np.asarray([0, 2, 2, 7], dtype=np.int64)))
        assert_same(
            xp.repeat(xp.arange(3, dtype=xp.int64), xp.asarray([0, 2, 1])),
            np.asarray([1, 1, 2], dtype=np.int64),
        )

    def test_reductions_return_scalarizable(self, backend):
        a = xp.asarray([4, 1, 9], dtype=xp.int64)
        assert int(a.max()) == 9
        assert int(a.sum()) == 14
        assert bool((a > 0).all())
        assert not bool((a < 0).any())


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------
class TestOrdering:
    def test_argsort_stable_with_duplicates(self, backend):
        a = xp.asarray([2, 1, 2, 1], dtype=xp.int64)
        assert_same(xp.argsort(a, kind="stable"), np.asarray([1, 3, 0, 2]))

    def test_lexsort(self, backend):
        prim = xp.asarray([1, 0, 1, 0], dtype=xp.int64)
        sec = xp.asarray([9, 9, 3, 3], dtype=xp.int64)
        got = xp.lexsort((sec, prim))
        assert_same(got, np.lexsort((np.asarray([9, 9, 3, 3]), np.asarray([1, 0, 1, 0]))))

    def test_unique_counts(self, backend):
        vals, counts = xp.unique(
            xp.asarray([5, 5, 1, 5, 1], dtype=xp.int64), return_counts=True
        )
        assert_same(vals, np.asarray([1, 5], dtype=np.int64))
        assert_same(counts, np.asarray([2, 3], dtype=np.intp))

    def test_nonzero_flatnonzero(self, backend):
        m = xp.asarray([False, True, False, True])
        assert_same(xp.nonzero(m)[0], np.asarray([1, 3], dtype=np.intp))
        assert_same(xp.flatnonzero(m), np.asarray([1, 3], dtype=np.intp))
        assert_same(xp.nonzero(xp.zeros(0, dtype=bool))[0], np.zeros(0, dtype=np.intp))


# ---------------------------------------------------------------------------
# masking / joining
# ---------------------------------------------------------------------------
class TestMasking:
    def test_boolean_mask_and_fancy_index(self, backend):
        a = xp.asarray([10, 20, 30], dtype=xp.int64)
        assert_same(a[xp.asarray([True, False, True])], np.asarray([10, 30], dtype=np.int64))
        assert_same(a[xp.asarray([2, 0], dtype=xp.int64)], np.asarray([30, 10], dtype=np.int64))

    def test_mask_write_through(self, backend):
        m = xp.ones(4, dtype=bool)
        m[xp.asarray([1, 3], dtype=xp.int64)] = False
        assert_same(xp.to_numpy(m), np.asarray([True, False, True, False]))

    def test_concatenate_with_empty(self, backend):
        a = xp.asarray([1], dtype=xp.int64)
        e = xp.asarray([], dtype=xp.int64)
        assert_same(xp.concatenate((e, a, e)), np.asarray([1], dtype=np.int64))

    def test_where(self, backend):
        got = xp.where(
            xp.asarray([True, False]), xp.asarray([1, 1], dtype=xp.int64), xp.asarray([2, 2], dtype=xp.int64)
        )
        assert_same(got, np.asarray([1, 2], dtype=np.int64))

    def test_minimum_maximum(self, backend):
        u = xp.asarray([3, INT64_MIN], dtype=xp.int64)
        v = xp.asarray([1, INT64_MAX], dtype=xp.int64)
        assert_same(xp.minimum(u, v), np.asarray([1, INT64_MIN], dtype=np.int64))
        assert_same(xp.maximum(u, v), np.asarray([3, INT64_MAX], dtype=np.int64))


# ---------------------------------------------------------------------------
# packed-uint64 bit ops (the encoding layer's word masks)
# ---------------------------------------------------------------------------
class TestPackedBits:
    def test_shift_or_mask(self, backend):
        words = xp.zeros(2, dtype=xp.uint64)
        words |= xp.uint64(1) << xp.asarray([63, 1], dtype=xp.uint64)
        assert_same(
            xp.to_numpy(words), np.asarray([1 << 63, 2], dtype=np.uint64)
        )

    def test_and_compare_rows(self, backend):
        # the candidate-table bitmap build: code_v & code_u == code_u
        rows = xp.asarray([[0b1011], [0b0001], [0b0100]], dtype=xp.uint64)
        need = xp.asarray([0b0001], dtype=xp.uint64)
        hit = ((rows & need) == need).all(axis=1)
        assert_same(xp.to_numpy(hit), np.asarray([True, True, False]))

    def test_all_zero_words(self, backend):
        rows = xp.zeros((3, 2), dtype=xp.uint64)
        assert not bool(rows.any())
        assert_same(
            xp.to_numpy((rows != 0).any(axis=1)), np.zeros(3, dtype=bool)
        )

    def test_uint64_overflow_wraps(self, backend):
        top = xp.asarray([np.uint64(2**64 - 1)], dtype=xp.uint64)
        assert_same(top + xp.uint64(1), np.asarray([0], dtype=np.uint64))


# ---------------------------------------------------------------------------
# registry mechanics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_both_builtins_registered(self):
        names = xp.available_backends()
        assert "numpy" in names and "strict_numpy" in names

    def test_numpy_backend_is_zero_indirection(self):
        with xp.use_backend("numpy"):
            wrapped = [
                name
                for name in IDENTITY_PRIMITIVES
                if getattr(xp, name) is not getattr(np, name)
            ]
        assert not wrapped, f"not numpy's own objects: {wrapped}"

    def test_use_backend_restores(self):
        before = xp.backend_name
        with xp.use_backend("strict_numpy"):
            assert xp.backend_name == "strict_numpy"
        assert xp.backend_name == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            xp.get_backend("cuda-imaginary")
        with pytest.raises(ValueError, match="unknown array backend"):
            xp.set_backend("cuda-imaginary")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            xp.register_backend(xp.Backend("numpy"))

    def test_register_custom_backend(self):
        name = "conformance-probe"
        if name not in xp.available_backends():
            xp.register_backend(
                xp.Backend(name, exports={"answer": 42}, resolve=lambda n: getattr(np, n))
            )
        with xp.use_backend(name):
            assert xp.answer == 42
            assert_same(xp.asarray([1], dtype=xp.int64), np.asarray([1], dtype=np.int64))
        # the probe's injected names must not leak into other backends
        with xp.use_backend("numpy"):
            with pytest.raises(AttributeError):
                xp.answer


# ---------------------------------------------------------------------------
# strict backend: the escape contract itself
# ---------------------------------------------------------------------------
class TestStrictEscapes:
    @pytest.fixture(autouse=True)
    def _strict(self):
        with xp.use_backend("strict_numpy"):
            yield

    def test_arrays_are_strict(self):
        assert isinstance(xp.asarray([1], dtype=xp.int64), xp.StrictArray)
        assert isinstance(xp.zeros(3), xp.StrictArray)
        # results of routines and ufuncs stay strict
        assert isinstance(xp.cumsum(xp.asarray([1, 2])), xp.StrictArray)
        assert isinstance(xp.asarray([1]) + 1, xp.StrictArray)
        assert isinstance(xp.nonzero(xp.asarray([True]))[0], xp.StrictArray)

    @pytest.mark.parametrize(
        "escape",
        [
            lambda a: a.item(),
            lambda a: a.tolist(),
            lambda a: float(a.sum()),
            lambda a: complex(a.sum()),
            lambda a: list(a),
            lambda a: [v for v in a],
            lambda a: set(a),
        ],
        ids=["item", "tolist", "float", "complex", "list", "comprehension", "set"],
    )
    def test_banned_escapes_raise(self, escape):
        a = xp.asarray([1, 2, 3], dtype=xp.int64)
        with pytest.raises(xp.ScalarEscapeError):
            escape(a)

    def test_escape_error_is_typeerror(self):
        # float(np.ndarray) raises TypeError; strict keeps that contract
        assert issubclass(xp.ScalarEscapeError, TypeError)

    def test_lane_local_reads_permitted(self):
        a = xp.asarray([5, 6], dtype=xp.int64)
        assert int(a[1]) == 6  # scalar index + int(): host control flow
        assert bool(a.any())
        assert int(a.sum()) == 11

    def test_sanctioned_chokepoints(self):
        a = xp.asarray([5, 6], dtype=xp.int64)
        assert xp.to_scalar(a.sum()) == 11
        out = xp.to_numpy(a)
        assert type(out) is np.ndarray
        assert out.tolist() == [5, 6]
        # to_numpy is a zero-copy demotion, not a copy
        assert out.base is a or np.shares_memory(out, a)

    def test_ufunc_methods_stay_strict(self):
        a = xp.asarray([1, 2, 3], dtype=xp.int64)
        acc = xp.add.accumulate(a)
        assert isinstance(acc, xp.StrictArray)
        with pytest.raises(xp.ScalarEscapeError):
            acc.tolist()
