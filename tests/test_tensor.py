"""Tensor engine tests.

Every differentiable op is checked against an independent oracle:
forward values against hand-rolled numpy (or pure-Python loops for
matmul), gradients against central finite differences.
"""

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

from fresh import has_special_ufuncs, run_fresh
from gradcheck import finite_diff_grad
from lowbit import tensor as T
from lowbit.errors import ContractError, ShapeError


# ---------------------------------------------------------------------------
# reference implementations (kept deliberately naive)


def matmul_loops(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def cross_entropy_ref(logits, targets):
    total = 0.0
    for row, t in zip(logits, targets):
        shifted = row - row.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        total -= logp[t]
    return total / len(targets)


def grad_close(analytic, numeric, rtol=1e-4, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.max(np.abs(analytic - numeric) / denom) <= rtol


def check_grads(f, *xs, eps=1e-5):
    """Compare backward grads of scalar f(*xs) to finite differences."""
    leaves = [T.Tensor(x, requires_grad=True) for x in xs]
    loss = f(*leaves)
    grads = T.backward(loss, wrt=leaves)
    for i, leaf in enumerate(leaves):
        def fi(t, i=i):
            args = [T.Tensor(x) for x in xs]
            args[i] = t
            return f(*args)
        fd = finite_diff_grad(fi, leaf, eps=eps)
        assert grad_close(grads[leaf], fd), f"grad mismatch on arg {i}"


# ---------------------------------------------------------------------------


class TestForward:
    def test_matmul_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        np.testing.assert_allclose(got, matmul_loops(a, b), rtol=1e-12)

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        np.testing.assert_allclose(got, a @ b, rtol=1e-12)

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 7)) * 50
        y = T.softmax(T.Tensor(x)).data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(5), rtol=1e-12)
        assert np.all(y >= 0)

    def test_softmax_stable_at_large_magnitudes(self):
        x = np.array([[1e4, 1e4 + 1.0]])
        y = T.softmax(T.Tensor(x)).data
        assert np.all(np.isfinite(y))

    def test_cross_entropy_uniform_logits(self):
        # all-equal logits over 4 classes: loss is ln 4
        logits = np.zeros((3, 4))
        targets = np.array([0, 1, 3])
        loss = T.cross_entropy(T.Tensor(logits), targets)
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-12)

    def test_cross_entropy_matches_reference(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(8, 11)) * 3
        targets = rng.integers(0, 11, size=8)
        loss = T.cross_entropy(T.Tensor(logits), targets)
        assert loss.item() == pytest.approx(cross_entropy_ref(logits, targets), rel=1e-12)

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(T.Tensor(np.zeros((2, 4))), np.array([0, 4]))

    def test_take_gathers_rows(self):
        table = np.arange(12.0).reshape(4, 3)
        idx = np.array([[0, 3], [1, 1]])
        out = T.take(T.Tensor(table), idx).data
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out[0, 1], table[3])

    def test_take_index_error(self):
        with pytest.raises(IndexError):
            T.take(T.Tensor(np.zeros((4, 3))), np.array([4]))


class TestBackward:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        check_grads(lambda x, y: T.mean(T.mul(T.add(x, y), x)), a, b)

    def test_sub_div(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5,))
        b = rng.normal(size=(5,)) + 3.0
        # a difference is a sum with a negation, and a quotient a product
        # with a reciprocal
        check_grads(lambda x, y: T.mean(T.mul(
            T.add(x, T.mul(y, T.Tensor(-1.0))), T.power(y, -1.0))), a, b)

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grads(lambda x, y: T.mean(T.matmul(x, y)), a, b)

    def test_matmul_batched_against_2d_weight(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        check_grads(lambda x, y: T.mean(T.power(T.matmul(x, y), 2.0)), a, b)

    @pytest.mark.parametrize("fn", [T.gelu])
    def test_unary_activations(self, fn):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40,))
        check_grads(lambda t: T.mean(T.mul(fn(t), t)), x)

    def test_softmax_grad(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(3, 6))
        check_grads(lambda t: T.mean(T.mul(T.softmax(t), T.Tensor(w))), x)

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(6, 9))
        targets = rng.integers(0, 9, size=6)
        check_grads(lambda t: T.cross_entropy(t, targets), x)

    def test_power_and_mean(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(4, 5)) + 4.0
        check_grads(lambda t: T.mean(T.power(T.mean(t, axis=1), 1.5)), x)

    def test_reshape_transpose(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 3, 4))
        check_grads(
            lambda t: T.mean(T.power(T.transpose(T.reshape(t, (6, 4)), (1, 0)), 2.0)), x)

    def test_take_accumulates_repeats(self):
        table = T.Tensor(np.ones((3, 2)), requires_grad=True)
        idx = np.array([0, 0, 2])
        out = T.mean(T.take(table, idx))
        grads = T.backward(out, wrt=[table])
        np.testing.assert_array_equal(grads[table] * 6, [[2, 2], [0, 0], [1, 1]])


class TestMachinery:
    def test_backward_requires_scalar(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.mul(x, x), wrt=[x])

    def test_backward_requires_grad_path(self):
        with pytest.raises(ContractError):
            T.backward(T.mean(T.Tensor(np.ones(3))), wrt=[])

    def test_tape_orders_parents_before_consumers(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = T.mul(x, x)
        z = T.mean(T.add(y, x))
        tape = T.build_tape(z._node)
        pos = {n: i for i, n in enumerate(tape)}
        assert set(pos) >= {x._node, y._node, z._node}
        for node in tape:
            for p in node.parents:
                if p in pos:
                    assert pos[p] < pos[node]

    def test_grad_accumulates_across_reuse(self):
        x = T.Tensor(np.array([3.0]), requires_grad=True)
        y = T.add(T.mul(x, x), x)  # x^2 + x, grad 2x + 1
        grads = T.backward(T.mean(y), wrt=[x])
        np.testing.assert_allclose(grads[x], [7.0])

    def test_unreached_wrt_gets_zeros(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        other = T.Tensor(np.ones(4), requires_grad=True)
        grads = T.backward(T.mean(x), wrt=[other])
        assert set(grads) == {other}
        np.testing.assert_array_equal(grads[other], np.zeros(4))

    def test_gradient_map_covers_exactly_the_tape(self):
        # every tape node holds a gradient by the time the reverse pass
        # reaches it, so asking for the tensors of all of them gets the
        # whole tape back
        rng = np.random.default_rng(23)
        made = []

        def keep(t):
            made.append(t)
            return t

        x = keep(T.Tensor(rng.normal(size=(4, 3)), requires_grad=True))
        w = keep(T.Tensor(rng.normal(size=(3, 5)), requires_grad=True))
        h = keep(T.add(keep(T.matmul(x, T.Tensor(rng.normal(size=(3, 3))))),
                       T.Tensor(np.ones(3))))
        y = keep(T.mul(h, h))  # h is used twice
        c = keep(T.gelu(keep(T.narrow(keep(T.take(w, np.array([0, 0, 2]))),
                                      1, 1, 3))))
        terms = [keep(T.mean(y, axis=0)),
                 keep(T.mean(keep(T.mul(c, T.Tensor(2.0))), axis=1)),
                 keep(T.mean(keep(T.mean(c, axis=1, keepdims=True)))),
                 keep(T.mean(keep(T.mean(y, axis=0, keepdims=True))))]
        loss = keep(T.mean(keep(T.add(keep(T.add(terms[0], terms[1])),
                                      keep(T.add(terms[2], terms[3]))))))
        tape = T.build_tape(loss._node)
        tensors = {t._node: t for t in made}
        assert set(tensors) == set(tape)
        grads = T.backward(loss, wrt=list(tensors.values()))
        assert set(grads) == set(made)
        assert {x, w, h, y, c} <= set(grads)
        for t in made:
            assert grads[t].shape == t.shape

    def test_wrt_returns_exactly_its_gradients_and_consumes_the_graph(self):
        rng = np.random.default_rng(24)
        x = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)

        def loss_of(x, w):
            h = T.matmul(x, w)
            return T.mean(T.mul(h, T.gelu(h)))

        full = T.backward(loss_of(x, w), wrt=[x, w])
        loss = loss_of(x, w)
        grads = T.backward(loss, wrt=[x, w])
        assert set(grads) == {x, w}
        for t in (x, w):
            assert np.array_equal(grads[t], full[t])
        # the tape was unlinked as it ran, so a second pass cannot give
        # zeros for a graph that no longer exists
        with pytest.raises(ContractError):
            T.backward(loss, wrt=[x, w])
        with pytest.raises(ContractError):
            T.backward(T.mean(T.add(loss, x)), wrt=[x])
        # the leaves survive and feed a fresh graph
        assert np.array_equal(T.backward(loss_of(x, w), wrt=[w])[w], full[w])

    def test_the_graph_holds_only_what_a_vjp_reads(self):
        # a mean reads no values and a product its other operand only, so
        # an intermediate dies with its Tensor unless a VJP reads it
        def run(read_h):
            x = T.Tensor(np.arange(3.0), requires_grad=True)
            h = T.add(x, T.Tensor(1.0))
            alive = weakref.ref(h.data)
            loss = T.mean(T.mul(h, x if read_h else T.Tensor(2.0)))
            del h
            held = alive() is not None
            return held, T.backward(loss, wrt=[x])[x], alive

        held, grad, alive = run(read_h=False)
        assert not held
        np.testing.assert_allclose(grad * 3, [2.0, 2.0, 2.0])
        held, grad, alive = run(read_h=True)
        assert held and alive() is None  # freed once the VJP has run
        np.testing.assert_allclose(grad * 3, [1.0, 3.0, 5.0])

    def test_backward_bit_identical_on_repeat(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))

        def run():
            ta = T.Tensor(a, requires_grad=True)
            loss = T.mean(T.power(T.matmul(ta, T.Tensor(b)), 2.0))
            return T.backward(loss, wrt=[ta])[ta]

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_independent_graphs_do_not_interfere(self):
        x1 = T.Tensor(np.array([2.0]), requires_grad=True)
        x2 = T.Tensor(np.array([5.0]), requires_grad=True)
        l1 = T.mean(T.mul(x1, x1))
        l2 = T.mean(T.mul(x2, x2))
        g2 = T.backward(l2, wrt=[x2])
        g1 = T.backward(l1, wrt=[x1])
        np.testing.assert_allclose(g1[x1], [4.0])
        np.testing.assert_allclose(g2[x2], [10.0])

    def test_finite_diff_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: T.mean(t), T.Tensor(np.ones(2)), eps=0.0)


# (op, shape of a, shape of b); the broadcast cases sum the gradient of
# the smaller operand back down
BINARY_CASES = [
    (T.add, (3, 4), (3, 4)), (T.add, (3, 4), (4,)), (T.add, (1, 4), (3, 1)),
    (T.add, (2, 3, 4), (3, 1)),
    (T.mul, (3, 4), (3, 4)), (T.mul, (3, 4), (1,)), (T.mul, (2, 3, 4), (4,)),
    (T.matmul, (3, 4), (4, 2)), (T.matmul, (2, 3, 4), (4, 5)),
    (T.matmul, (2, 3, 4), (2, 4, 5)), (T.matmul, (3, 4), (2, 4, 5)),
]


class TestConstantOperands:
    """A binary op computes no gradient for an operand that needs none,
    and the other operand's gradient keeps its bits."""

    @pytest.mark.parametrize("op,sa,sb", BINARY_CASES, ids=lambda c: (
        c.__name__ if callable(c) else "x".join(map(str, c))))
    @pytest.mark.parametrize("constant", [0, 1], ids=["a_const", "b_const"])
    def test_constant_operand_gets_no_vjp(self, op, sa, sb, constant):
        rng = np.random.default_rng(30)
        a = rng.normal(size=sa)
        b = rng.normal(size=sb)

        def run(needs_grad):
            leaves = [T.Tensor(x, requires_grad=r) for x, r in zip((a, b), needs_grad)]
            out = op(*leaves)
            parents = out._node.parents
            vjp = out._node.vjp(np.ones_like(out.data))
            # a non-uniform upstream gradient, so no gradient is a plain sum
            grads = T.backward(T.mean(T.power(out, 2.0)),
                               wrt=[t for t in leaves if t.requires_grad])
            return parents, vjp, [grads.get(t) for t in leaves]

        _, _, want = run((True, True))
        parents, vjp, got = run(tuple(i != constant for i in range(2)))
        varied = 1 - constant
        assert parents[constant] is None and parents[varied] is not None
        assert vjp[constant] is None and vjp[varied] is not None
        assert got[constant] is None
        assert np.array_equal(got[varied], want[varied])


class TestStreamedWeightGradient:
    """A 2-d weight under batched activations gets its gradient summed
    slice by slice, with the bits of the summed (batch, in, out) stack."""

    @pytest.mark.parametrize("a_shape,n_out", [
        ((1, 3, 4), 2), ((3, 5, 4), 6), ((2, 3, 5, 4), 6), ((4, 1, 7, 3), 1),
        ((8, 32, 512), 512), ((2, 4, 16, 512), 512)],
        ids=lambda c: "x".join(map(str, c)) if isinstance(c, tuple) else str(c))
    def test_equals_the_summed_stack_bit_for_bit(self, a_shape, n_out):
        rng = np.random.default_rng(31)
        a = rng.normal(size=a_shape)
        g = rng.normal(size=a_shape[:-1] + (n_out,))
        w = T.Tensor(rng.normal(size=(a_shape[-1], n_out)), requires_grad=True)
        got = T.matmul(T.Tensor(a), w)._node.vjp(g)[1]
        stack = np.swapaxes(a, -1, -2) @ g
        for want in (stack.reshape(-1, *stack.shape[-2:]).sum(axis=0),
                     stack.sum(axis=tuple(range(a.ndim - 2)))):
            assert got.shape == w.shape
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _module_aliases(tree: ast.Module, module: str) -> set:
    """The names a module binds ``lowbit.<module>`` to: by ``from . import``
    or ``from lowbit import``, or, as cli does, by unpacking
    ``map(_lazy, (<module names>))``."""
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level, node.module) in ((1, None), (0, "lowbit"))
               for a in node.names if a.name == module}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "map"
                and isinstance(node.value.args[0], ast.Name)
                and node.value.args[0].id == "_lazy"):
            names = [c.value for c in node.value.args[1].elts]
            aliases |= {t.id for t, name in zip(node.targets[0].elts, names)
                        if name == module}
    return aliases


def _package_references(tree: ast.Module, module: str, own: bool) -> set:
    """Names of ``lowbit.<module>`` functions and classes a module refers
    to: through an alias of the module (:func:`_module_aliases`), by
    ``from .<module> import``, or, in the module itself, by bare name
    outside the definition's own body."""
    aliases = _module_aliases(tree, module)
    refs = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add(node.attr)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module in (module, f"lowbit.{module}")):
                found.update(a.name for a in node.names)
            elif own and isinstance(node, ast.Name):
                found.add(node.id)
        if own and isinstance(stmt, DEFINITIONS):
            found.discard(stmt.name)
        refs |= found
    return refs


# gelu's forward and VJP on a grid through every branch of cephes' erf
# (|x/sqrt2| = 1 and 8), beside the same formula on scipy.special.erf;
# with argument "unfound" the lookup of erf's extension module finds
# nothing, as on a scipy without it
GELU_BITS = """
import hashlib, json, sys
import numpy as np
from lowbit import tensor as T

if sys.argv[1:] == ["unfound"]:
    class Unfound(T.FileFinder):
        def find_spec(self, fullname, target=None):
            return None
    T.FileFinder = Unfound

f64 = np.finfo(np.float64)
near = (np.sqrt(2.0) * np.array([1.0, 8.0])).view(np.int64)
near = (near[:, None] + np.arange(-4, 5)).ravel().view(np.float64)
edge = np.concatenate([[0.0, f64.smallest_subnormal, 1e-310,
                        f64.smallest_normal - f64.smallest_subnormal,
                        f64.smallest_normal, np.inf], near])
grid = np.concatenate([edge, -edge, [np.nan],
                       np.random.default_rng(0).normal(size=100_000)])
w = np.random.default_rng(1).normal(size=grid.shape)

x = T.Tensor(grid, requires_grad=True)
y = T.gelu(x)
dx = T.backward(T.mean(T.mul(y, w)), [x])[x]
package_before = "scipy.special" in sys.modules
import scipy.special
from scipy.stats import spearmanr
erf = scipy.special.erf
cdf = 0.5 * (1.0 + erf(grid * T._INV_SQRT2))
pdf = T._INV_SQRT2PI * np.exp(-0.5 * grid * grid)
print(json.dumps({
    "package_before": package_before, "same_ufunc": T._erf() is erf,
    "y": y.data.tobytes() == (grid * cdf).tobytes(),
    "dx": dx.tobytes() == (1.0 / grid.size * w * (cdf + grid * pdf)).tobytes(),
    "spearman": float(spearmanr(grid[-9:], w[-9:]).statistic),
    "sha": hashlib.sha256(y.data.tobytes() + dx.tobytes()).hexdigest()}))
"""


class TestGeluErf:
    def test_loaded_ufunc_is_scipys_and_keeps_every_bit(self):
        _, res = run_fresh(GELU_BITS)
        assert res["same_ufunc"] and res["y"] and res["dx"]
        assert -1.0 <= res["spearman"] <= 1.0
        if has_special_ufuncs():
            assert res["package_before"] is False

    def test_without_the_extension_the_package_gives_the_same_bits(self):
        _, res = run_fresh(GELU_BITS)
        _, fallback = run_fresh(GELU_BITS, "unfound")
        assert fallback["package_before"] is True
        assert fallback["same_ufunc"] and fallback["y"] and fallback["dx"]
        assert fallback["sha"] == res["sha"]


PACKAGE = Path(T.__file__).parent
# the acceptance gate drives the package the way a user's script would,
# so its calls count; tests written against one function do not
CALLERS = [*sorted(PACKAGE.glob("*.py")),
           Path(__file__).with_name("test_acceptance.py")]
# the artifact reader that runs a model from the file alone will call it
NO_CALLER_YET = {"artifact": {"load_artifact"}}


@pytest.mark.parametrize("module", sorted(
    p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__")))
def test_every_public_function_has_a_caller_in_the_package(module):
    # a function only its own tests call is dead weight in the package
    own = PACKAGE / f"{module}.py"
    public = {f.name for f in ast.parse(own.read_text()).body
              if isinstance(f, DEFINITIONS) and not f.name.startswith("_")}
    used = set()
    for path in CALLERS:
        used |= _package_references(ast.parse(path.read_text()), module,
                                    path == own)
    assert sorted(public - used - NO_CALLER_YET.get(module, set())) == []


def _json_decodes(tree: ast.Module) -> list:
    """Line numbers of ``json.load``/``json.loads`` calls in a module,
    under any alias ``import json`` or ``from json import`` binds."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "json"}
    bare = {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "json"
            for a in node.names if a.name in ("load", "loads")}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("load", "loads")
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id in modules)
                or (isinstance(node.func, ast.Name) and node.func.id in bare))]


def test_json_is_decoded_in_one_place():
    # every JSON input goes through config.read_json_object, so a decode
    # failure of any kind reaches each caller as one ValueError
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef)]
        for line in _json_decodes(tree):
            owner = min((f for f in functions
                         if f.lineno <= line <= f.end_lineno),
                        key=lambda f: f.end_lineno - f.lineno, default=None)
            sites.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    assert sites == ["config.read_json_object"]
