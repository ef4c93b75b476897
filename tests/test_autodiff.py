import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import brainsurf
from brainsurf import autodiff as ad
from brainsurf.autodiff import (
    Param,
    ParamArena,
    Tensor,
    adam_step,
    backward,
    grad_check,
)
from brainsurf.fileio import load_checkpoint, save_checkpoint
from brainsurf.icosphere import build_hierarchy, operators
from brainsurf.meshlayers import init_conv_layer, mesh_conv
from brainsurf.rcloss import Margins, rc_loss
from oracles import concat_channels, hinge, sum_of_squares


def trainable(arr):
    return Tensor(np.asarray(arr, dtype=float), requires_grad=True)


def mix(parts, coeffs):
    # sum_k coeffs[k] * parts[k] of same-shape [R, C] tensors, built from the
    # package's ops and the tests' concatenation: concatenate the channels,
    # then apply [c_0 I | c_1 I | ...] to them, moved to the front by a
    # transpose.
    eye = sp.identity(parts[0].shape[1])
    fold = sp.hstack([c * eye for c in coeffs], format="csr")
    wide = ad.transpose(concat_channels(parts), (1, 0))
    return ad.transpose(ad.sparse_matmul(fold, wide), (1, 0))


class TestForwardOps:
    def test_sparse_matmul_matches_dense(self):
        # The operator acts along axis 0, whatever the trailing shape.
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((5, 5))
        dense[np.abs(dense) < 0.7] = 0.0
        s = sp.csr_matrix(dense)
        x = rng.standard_normal((5, 3))
        out = ad.sparse_matmul(s, Tensor(x))
        assert np.allclose(out.data, dense @ x, atol=1e-14)
        x3 = rng.standard_normal((5, 2, 3))
        out3 = ad.sparse_matmul(s, Tensor(x3))
        assert np.allclose(out3.data, np.einsum("uv,vbc->ubc", dense, x3), atol=1e-14)
        with pytest.raises(ValueError, match=r"sparse_matmul: operator \(5, 5\) against data \(3, 5\)"):
            ad.sparse_matmul(s, Tensor(x.T))

    def test_leaky_relu_values(self):
        # A one-channel conv that passes its input through (identity weight,
        # zero bias), then its activation: max(x, 0.1 x).
        layer = init_conv_layer(np.random.default_rng(0), "c", 1, 1, operators(0))
        layer.weights.tensor.data[...] = [[[1.0]], [[0.0]], [[0.0]], [[0.0]]]
        x = np.zeros((12, 1, 1))
        x[:2, 0, 0] = [-2.0, 3.0]
        out = mesh_conv(layer, Tensor(x), slope=0.1)
        assert np.allclose(out.data[:2, 0, 0], [-0.2, 3.0])


class TestBackward:
    def test_sum_of_squares(self):
        x = trainable([[1.0], [2.0], [3.0]])
        s = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]]))
        backward(sum_of_squares(ad.sparse_matmul(s, x)))
        assert np.array_equal(x.grad, 2.0 * (s.T @ (s @ x.data)))

    def test_mean(self):
        x = trainable([1.0, 2.0, 3.0, 4.0])
        backward(x.mean())
        assert np.allclose(x.grad, [0.25] * 4)

    def test_diamond_fanout(self):
        x = trainable([[1.5]])
        backward(sum_of_squares(concat_channels([x, x])))
        assert x.grad == 6.0

    def test_non_scalar_root(self):
        x = trainable([1.0, 2.0])
        with pytest.raises(ValueError, match=r"backward root must be scalar, got shape \(2,\)"):
            backward(hinge(x))

    def test_grad_accumulates_across_uses(self):
        x = trainable([[1.0], [-2.0]])
        s = sp.csr_matrix(3.0 * np.eye(2))
        backward(sum_of_squares(hinge(x, 0.5), ad.sparse_matmul(s, x)))
        assert np.array_equal(x.grad, np.where(x.data > 0.0, 2.0, 0.5) * x.data + 18.0 * x.data)

    def test_no_grad_blocks_graph(self):
        x = trainable([1.0, 2.0])
        with ad.no_grad():
            y = sum_of_squares(hinge(x))
        assert not y.requires_grad
        assert y._backward_fn is None


OPS = ("leaky", "scale", "add_leaf", "sub_leaf", "fanout", "sparse", "transpose")


def build_chain(x, w, ops, slope):
    # A graph over two leaves of shape [5, 3] from a sequence of shape-keeping
    # ops.
    s = sp.csr_matrix(np.eye(5) + np.eye(5, k=1))
    h = x
    for op in ops:
        if op == "leaky":
            h = hinge(h, slope)
        elif op == "scale":
            h = ad.sparse_matmul(sp.csr_matrix(-0.7 * np.eye(5)), h)
        elif op == "add_leaf":
            h = mix([h, w], [1.0, 1.0])
        elif op == "sub_leaf":
            h = mix([w, h], [1.0, -1.0])
        elif op == "fanout":
            h = mix([h, h], [1.0, 0.5])
        elif op == "sparse":
            h = ad.sparse_matmul(s, h)
        else:
            h = ad.transpose(ad.transpose(h, (1, 0)), (1, 0))
    return h


def unpooling_conv(rng, slope, skip_needs_grad=True, coarse_needs_grad=True):
    # A level-1 decoder conv on batch 2: 2 skip channels, then 3 channels
    # unpooled from level 0.
    layer = init_conv_layer(rng, "u", 5, 2, operators(1))
    skip = Tensor(rng.standard_normal((42, 2, 2)), requires_grad=skip_needs_grad)
    coarse = Tensor(rng.standard_normal((12, 2, 3)), requires_grad=coarse_needs_grad)
    return mesh_conv(layer, skip, slope, coarse=(build_hierarchy(1).pool_map(1), coarse))


def graph_nodes(root):
    seen, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node._parents)
    return list(seen.values())


finite_floats = st.floats(-1e3, 1e3, allow_nan=False)


class TestBackwardReleases:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        slope=st.floats(0.0, 1.0),
    )
    def test_only_leaves_hold_gradients(self, ops, seed, slope):
        rng = np.random.default_rng(seed)
        x, w = trainable(rng.standard_normal((5, 3))), trainable(rng.standard_normal((5, 3)))
        root = sum_of_squares(build_chain(x, w, ops, slope), unpooling_conv(rng, slope))
        # Collected with their parents before the sweep, which drops them.
        nodes = [(node, bool(node._parents)) for node in graph_nodes(root)]
        backward(root)
        for node, interior in nodes:
            if interior:
                assert node.grad is None
            elif node.requires_grad:
                assert node.grad.shape == node.data.shape
        assert x.grad is not None

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(OPS), max_size=5),
        seed=st.integers(0, 2**32 - 1),
        in_arena=st.booleans(),
    )
    def test_param_behind_inactive_hinge_gets_exact_zeros(self, ops, seed, in_arena):
        rng = np.random.default_rng(seed)
        x, w = trainable(rng.standard_normal((5, 3))), trainable(rng.standard_normal((5, 3)))
        params = [Param("x", x), Param("w", w)]
        if in_arena:
            ParamArena(params)
        h = build_chain(x, w, ops, 0.1)
        # An R-C loss with both hinges inactive: L_R = 0 < alpha, and
        # L_R - L_C + beta = -L_C <= 0.
        zeros = np.zeros_like(h.data)
        loss = rc_loss([h, Tensor(zeros)], [h.data, zeros], Margins(alpha=1.0, beta=0.0)).l_rc
        backward(loss)
        reached = {"x": True, "w": bool({"add_leaf", "sub_leaf"} & set(ops))}
        for p in params:
            if reached[p.name] or in_arena:
                assert p.tensor.grad.shape == p.tensor.data.shape
                assert (p.tensor.grad == 0.0).all()
            else:
                assert p.tensor.grad is None

    @settings(max_examples=200, deadline=None)
    @given(
        x=hnp.arrays(np.float64, (12, 2, 3), elements=finite_floats | st.sampled_from([0.0, -0.0])),
        bias=hnp.arrays(np.float64, 2, elements=finite_floats | st.sampled_from([0.0, -0.0])),
        seed=st.integers(0, 2**32 - 1),
        slope=st.floats(0.0, 1.0),
    )
    def test_leaky_relu_matches_where_form_bitwise(self, x, bias, seed, slope):
        # mesh_conv's activation, max(y, slope*y) in place, gives the bits of
        # where(y > 0, y, slope*y) on the linear conv's y, and its backward
        # those of the linear conv's backward of g * where(y > 0, 1, slope),
        # signed zeros included, for every slope in [0, 1].
        layer = init_conv_layer(np.random.default_rng(seed), "c", 3, 2, operators(0))
        layer.bias.tensor.data[...] = bias
        t = trainable(x)
        y = mesh_conv(layer, t)
        out = mesh_conv(layer, t, slope)
        assert out.data.tobytes() == np.where(y.data > 0.0, y.data, slope * y.data).tobytes()
        g = np.random.default_rng(seed).standard_normal(y.data.shape)
        fused = out._backward_fn(g)
        linear = y._backward_fn(g * np.where(y.data > 0.0, 1.0, slope))
        for a, b in zip(fused, linear, strict=True):
            assert a.tobytes() == b.tobytes()


class TestGradientFunctions:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(OPS), max_size=6),
        seed=st.integers(0, 2**32 - 1),
        slope=st.floats(0.0, 1.0),
        conv_input_needs_grad=st.booleans(),
        coarse_needs_grad=st.booleans(),
        margins=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    )
    def test_one_gradient_per_parent(self, ops, seed, slope, conv_input_needs_grad, coarse_needs_grad, margins):
        # Every recorded node's gradient function returns one entry per
        # parent, in parent order: None, or an array of that parent's shape.
        rng = np.random.default_rng(seed)
        x, w = trainable(rng.standard_normal((5, 3))), trainable(rng.standard_normal((5, 3)))
        h = build_chain(x, w, ops, slope)
        wide = concat_channels([h, w, Tensor(np.ones((5, 2))), hinge(h, slope)])
        layer = init_conv_layer(rng, "c", 3, 2, operators(0))
        conv_in = Tensor(rng.standard_normal((12, 2, 3)), requires_grad=conv_input_needs_grad)
        targets = rng.standard_normal((2, 5, 3))
        losses = [
            rc_loss([h, w], targets, Margins(*margins)).l_rc,
            rc_loss(ad.transpose(wide, (1, 0)), rng.standard_normal((11, 5)), Margins(*margins)).l_rc,
            rc_loss([h], w.data[None], None).l_r,
        ]
        unpooled = unpooling_conv(rng, slope, conv_input_needs_grad, coarse_needs_grad)
        root = sum_of_squares(wide, mesh_conv(layer, conv_in), unpooled, *losses)
        recorded = [node for node in graph_nodes(root) if node._parents]
        assert len(recorded) >= 9
        for node in recorded:
            grads = node._backward_fn(rng.standard_normal(node.data.shape))
            assert len(grads) == len(node._parents)
            for parent, g in zip(node._parents, grads):
                assert g is None or np.shape(g) == parent.data.shape


SRC = Path(brainsurf.__file__).parent
GRAPH_INTERNALS = {"_accumulate", "_parents", "_backward_fn"}
NODE_FIELDS = {"_parents", "_backward_fn"}


def names_in(tree):
    # (line, name) of every identifier, attribute, import or string naming
    # one of the graph internals.
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in GRAPH_INTERNALS:
            yield getattr(node, "lineno", "?"), name


def node_field_writes(node, scope=()):
    # (enclosing def or class path, line, field) of every assignment or
    # deletion of a node field.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from node_field_writes(child, (*scope, child.name))
            continue
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.ctx, (ast.Store, ast.Del))
            and child.attr in NODE_FIELDS
        ):
            yield ".".join(scope), child.lineno, child.attr
        yield from node_field_writes(child, scope)


class TestGraphBoundary:
    def test_only_autodiff_names_graph_internals(self):
        offenders = [
            f"{path.name}:{line} {name}"
            for path in sorted(SRC.glob("*.py"))
            if path.stem != "autodiff"
            for line, name in names_in(ast.parse(path.read_text()))
        ]
        assert offenders == []

    def test_every_public_op_has_a_caller(self):
        # Ops that no caller reads are deleted: every public autodiff
        # function that returns a Tensor, every public rcloss and meshlayers
        # function, and every public method of connectome.Dataset, is named
        # in another package module (a re-export is no caller).
        def public(module, returns=None):
            return {
                f.name
                for f in ast.parse((SRC / f"{module}.py").read_text()).body
                if isinstance(f, ast.FunctionDef)
                and not f.name.startswith("_")
                and (returns is None or f.returns is not None and ast.unparse(f.returns).strip("'\"") == returns)
            }

        def named_outside(module):
            return {
                node.attr if isinstance(node, ast.Attribute) else node.name
                for path in SRC.glob("*.py")
                if path.stem not in (module, "__init__")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Attribute, ast.alias))
            }

        for module, returns in (("autodiff", "Tensor"), ("rcloss", None), ("meshlayers", None)):
            ops = public(module, returns)
            assert ops
            assert sorted(ops - named_outside(module)) == []

        dataset = next(
            c for c in ast.parse((SRC / "connectome.py").read_text()).body
            if isinstance(c, ast.ClassDef) and c.name == "Dataset"
        )
        methods = {f.name for f in dataset.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
        assert methods
        assert sorted(methods - named_outside("connectome")) == []

    def test_every_definition_is_named_elsewhere(self):
        # Code that nothing in the package names is deleted: every function,
        # class and method (dunders aside, which Python calls) of a package
        # module is named in src/ outside its own definition (a re-export in
        # __init__ is no caller).  Only the acceptance gate reads these:
        only_the_gate = {
            "generate_cohort",  # the gate's in-memory cohorts (conftest, criterion 9)
            "Icosphere.n_faces",  # criterion 1 checks Euler's formula with these two
            "Icosphere.n_edges",
        }

        def definitions(body, prefix=""):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        yield prefix + node.name, node.name
                    yield from definitions(node.body, f"{prefix}{node.name}.")

        trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
        named = {
            node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        unnamed = {qualified for tree in trees for qualified, name in definitions(tree.body) if name not in named}
        assert unnamed == only_the_gate

    def test_only_the_constructors_set_node_fields(self):
        # The constructors set a node's fields; backward alone clears them,
        # once the node has passed its gradient on.
        writers = {"Tensor.__init__", "_op", "backward"}
        tree = ast.parse((SRC / "autodiff.py").read_text())
        writes = list(node_field_writes(tree))
        assert [w for w in writes if w[0] not in writers] == []
        assert {scope for scope, _, _ in writes} == writers


class TestGradCheck:
    def test_sum_of_squares(self):
        x = Param("x", trainable([0.3, -1.2, 2.0]))
        err = grad_check(lambda: sum_of_squares(hinge(x.tensor, 0.3)), [x])
        assert err < 1e-8

    def test_linear_layer(self):
        # x w + 1 b, with the constant inputs x [9, 6] and 1 [9, 1] applied
        # as sparse operators to the trainable weights w [6, 4] and bias b [1, 4].
        rng = np.random.default_rng(3)
        w = Param("w", trainable(rng.standard_normal((6, 4))))
        b = Param("b", trainable(rng.standard_normal((1, 4))))
        x = sp.csr_matrix(rng.standard_normal((9, 6)))
        ones = sp.csr_matrix(np.ones((9, 1)))

        def f():
            # (x w + 1 b) / 6, whose sum of squares is the mean square of its 36 entries.
            y = mix([ad.sparse_matmul(x, w.tensor), ad.sparse_matmul(ones, b.tensor)], [1 / 6, 1 / 6])
            return sum_of_squares(y)

        assert grad_check(f, [w, b]) < 1e-9

    def test_hinge_boundary_coordinate_skipped(self):
        # alpha set at L_R puts the R-C loss's own R hinge exactly at its kink
        # (the C hinge is strictly inactive): every perturbation crosses it,
        # where finite differences disagree with the chosen subgradient, so
        # every coordinate is skipped.
        rng = np.random.default_rng(6)
        preds = rng.standard_normal((2, 3)) + np.array([[0.0], [5.0]])
        targets = preds + 0.1 * rng.standard_normal((2, 3))
        x = Param("x", trainable(preds))
        alpha = rc_loss(preds, targets, Margins(0.0, 0.0)).l_r.item()

        def f():
            return rc_loss(x.tensor, targets, Margins(alpha, 0.0)).l_rc

        assert f().item() == 0.0
        assert grad_check(f, [x]) == 0.0

    def test_subsampling_deterministic(self):
        rng = np.random.default_rng(4)
        w = Param("w", trainable(rng.standard_normal(500)))

        def f():
            return sum_of_squares(hinge(w.tensor))

        e1 = grad_check(f, [w], max_coords=50, seed=9)
        e2 = grad_check(f, [w], max_coords=50, seed=9)
        assert e1 == e2


def reference_adam(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam update that the flat one replaced, kept as the
    bitwise reference: per-name moment dicts, fresh temporaries per call."""
    if not state:
        state = {
            "step": 0,
            "m": {p.name: np.zeros_like(p.tensor.data) for p in params},
            "v": {p.name: np.zeros_like(p.tensor.data) for p in params},
        }
    state["step"] += 1
    t = state["step"]
    for p, g in zip(params, grads):
        m = state["m"][p.name]
        v = state["v"][p.name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.tensor.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        data = np.array([1.0, 2.0])
        state = adam_step(data, np.zeros(2), None)
        assert np.array_equal(data, [1.0, 2.0])
        state.m[:] = 1.0
        adam_step(data, np.zeros(2), state)
        assert (state.m < 1.0).all()  # moments decay toward zero
        assert state.step == 2

    def test_single_step_hand_computed(self):
        # With constant gradient g, the bias-corrected first step is
        # -lr * g / (|g| + eps): magnitude ~ lr regardless of g's scale.
        data = np.array([0.0])
        g = np.array([7.0])
        lr, eps = 1e-3, 1e-8
        adam_step(data, g, None, lr=lr, eps=eps)
        expected = -lr * g / (np.abs(g) + eps)
        assert np.allclose(data, expected, atol=1e-15)

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            p = Param("p", trainable(rng.standard_normal(8)))
            arena = ParamArena([p])
            state = None
            for _ in range(25):
                arena.zero_grad()
                backward(sum_of_squares(p.tensor))
                state = adam_step(arena.data, arena.grad, state)
            return p.tensor.data.copy()

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"adam_step: flat data \(3,\), grad \(1,\), state \(3,\)"):
            adam_step(np.zeros(3), np.zeros(1), None)  # would broadcast
        state = adam_step(np.zeros(3), np.zeros(3), None)
        with pytest.raises(ValueError, match=r"adam_step: flat data \(4,\), grad \(4,\), state \(3,\)"):
            adam_step(np.zeros(4), np.zeros(4), state)

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, max_side=5), min_size=1, max_size=5),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        lr=st.floats(1e-5, 1.0),
        beta1=st.floats(0.0, 0.99),
        beta2=st.floats(0.0, 0.9999),
        eps=st.floats(1e-12, 1e-3),
    )
    def test_flat_matches_per_parameter_bitwise(self, shapes, steps, seed, lr, beta1, beta2, eps):
        # Once with the arena in one block, once in blocks of 7 elements,
        # whose last one is partial whenever the arena is not a multiple of 7.
        for block in (ad._ADAM_BLOCK, 7):
            rng = np.random.default_rng(seed)
            init = [rng.standard_normal(s) * 10.0 ** rng.integers(-3, 4) for s in shapes]
            ref = [Param(f"p{i}", trainable(a.copy())) for i, a in enumerate(init)]
            flat = [Param(f"p{i}", trainable(a.copy())) for i, a in enumerate(init)]
            arena = ParamArena(flat)
            ref_state, state = None, None
            with mock.patch.object(ad, "_ADAM_BLOCK", block):
                for _ in range(steps):
                    grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-4, 4) for s in shapes]
                    grads[0].flat[0] = 0.0  # a coordinate whose gradient is exactly zero
                    ref_state = reference_adam(ref, grads, ref_state, lr, beta1, beta2, eps)
                    arena.zero_grad()
                    for p, g in zip(flat, grads):
                        p.tensor.grad += g
                    state = adam_step(arena.data, arena.grad, state, lr, beta1, beta2, eps)
            assert state.scratch[0].size == block
            for r, f in zip(ref, flat):
                assert r.tensor.data.tobytes() == f.tensor.data.tobytes()
            assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_state["m"].values()]).tobytes()
            assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_state["v"].values()]).tobytes()


class TestParamArena:
    def test_data_and_grads_are_views_in_order(self):
        rng = np.random.default_rng(2)
        arrays = [rng.standard_normal((2, 3)), rng.standard_normal(4), np.array(5.0)]
        params = [Param(f"p{i}", trainable(a)) for i, a in enumerate(arrays)]
        arena = ParamArena(params)
        assert np.array_equal(arena.data, np.concatenate([a.ravel() for a in arrays]))
        offset = 0
        for p, a in zip(params, arrays):
            assert p.tensor.data.shape == a.shape
            assert np.shares_memory(p.tensor.data, arena.data[offset : offset + a.size])
            assert np.shares_memory(p.tensor.grad, arena.grad[offset : offset + a.size])
            offset += a.size
        assert not arena.grad.any()

    def test_zero_grad_keeps_the_view(self):
        p = Param("p", trainable([1.0, -2.0]))
        arena = ParamArena([p])
        backward(sum_of_squares(p.tensor))
        assert np.array_equal(arena.grad, [2.0, -4.0])  # accumulated into the view
        p.tensor.zero_grad()
        assert np.shares_memory(p.tensor.grad, arena.grad) and not arena.grad.any()
        backward(sum_of_squares(p.tensor))
        assert np.array_equal(arena.grad, [2.0, -4.0])  # into the same view again
        arena.zero_grad()
        assert np.shares_memory(p.tensor.grad, arena.grad) and not arena.grad.any()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {"a.weight": rng.standard_normal((3, 4)), "b": rng.standard_normal(7)}
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, arrays, meta={"note": 1})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": 1}
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr)

    def test_header_is_json_line(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"x": np.ones(2)})
        import json

        with open(path, "rb") as f:
            header = json.loads(f.readline())
        assert header["entries"][0]["name"] == "x"
        assert header["entries"][0]["shape"] == [2]
