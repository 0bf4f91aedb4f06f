"""The learner on one flat parameter vector.

``ActorCriticMLP`` keeps its parameters in ``flat`` and its gradients in
``flat_grad``; ``clip_gradients`` and ``Adam`` work on whole vectors in
place, and ``Policy.act`` samples each component straight from its masked
logits.  These tests hold each of them to the per-array form it replaced:
``tests/reference_learner.py`` for the step, ``MultiCategorical`` for the
sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_learner
from repro.nn import (
    ActorCriticMLP,
    Adam,
    MultiCategorical,
    clip_gradients,
    flatten_parameters,
    parameter_spec,
    unflatten_parameters,
)
from repro.rl import Policy
from repro.rl.spaces import Discrete, TupleSpace


def _bits(array) -> bytes:
    return np.asarray(array, dtype=np.float64).tobytes()


@pytest.mark.parametrize("max_norm", [None, 1.0], ids=["unclipped", "clipped"])
def test_flat_step_equals_the_per_array_formulas(max_norm):
    model = ActorCriticMLP(obs_size=12, action_sizes=(3, 4),
                           hidden_sizes=(8, 6), seed=5)
    reference = {name: p.copy() for name, p in model.parameters().items()}
    adam = Adam(model.spec, learning_rate=1e-2)
    reference_adam = reference_learner.Adam(learning_rate=1e-2)
    rng = np.random.default_rng(7)
    clipped = 0
    for _ in range(50):
        model.forward(rng.normal(size=(9, 12)))
        scale = 10.0 ** rng.uniform(-1.5, 1.5)
        grads = model.backward(rng.normal(size=(9, 7)) * scale,
                               rng.normal(size=9) * scale)
        expected, total = reference_learner.clip_gradients(
            {name: g.copy() for name, g in grads.items()}, max_norm)
        norm = clip_gradients(model.flat_grad, grads.values(), max_norm)
        if max_norm is not None and total > max_norm:
            clipped += 1
            assert norm == max_norm
        else:
            assert norm == total
        adam.step(model.flat, model.flat_grad)
        reference_adam.step(reference, expected)
        for name, param in model.parameters().items():
            assert _bits(param) == _bits(reference[name]), name
    state = adam.state_dict()
    assert state["t"] == reference_adam.t == 50
    for name in reference:
        assert _bits(state["m"][name]) == _bits(reference_adam.m[name])
        assert _bits(state["v"][name]) == _bits(reference_adam.v[name])
    if max_norm is not None:
        assert 0 < clipped < 50


def test_adam_state_resumes_bit_for_bit():
    spec = [("a", (3, 2)), ("b", (4,))]
    rng = np.random.default_rng(3)
    grads = [rng.normal(size=10) for _ in range(6)]
    whole, split = Adam(spec, 0.1), Adam(spec, 0.1)
    params = rng.normal(size=10)
    resumed = params.copy()
    for grad in grads[:3]:
        whole.step(params, grad)
        split.step(resumed, grad)
    state = split.state_dict()
    # Per-name state, detached from the optimiser it came from.
    assert {name: a.shape for name, a in state["m"].items()} == dict(spec)
    split.step(resumed, grads[3])
    restored = Adam(spec, 0.1)
    restored.load_state_dict(state)
    resumed = params.copy()
    for grad in grads[3:]:
        whole.step(params, grad)
        restored.step(resumed, grad)
    assert _bits(resumed) == _bits(params)


def test_flat_buffers_are_laid_out_by_parameter_spec():
    # Eleven trunk layers: "trunk10" sorts between "trunk1" and "trunk2".
    model = ActorCriticMLP(obs_size=5, action_sizes=(3, 2),
                           hidden_sizes=(4,) * 11, seed=2)
    params = model.parameters()
    assert model.spec == parameter_spec(params)
    assert _bits(model.flat) == _bits(flatten_parameters(params))
    assert all(np.shares_memory(p, model.flat) for p in params.values())
    restored = unflatten_parameters(model.flat, model.spec)
    assert all(_bits(restored[n]) == _bits(p) for n, p in params.items())

    model.forward(np.ones((2, 5)))
    grads = model.backward(np.ones((2, 5)), np.ones(2))
    assert sorted(grads) == sorted(params)
    assert _bits(model.flat_grad) == _bits(flatten_parameters(grads))

    blank = ActorCriticMLP.allocate(**model.clone_config())
    assert blank.spec == model.spec and not blank.flat.any()


class _FixedLogits:
    """A stand-in model whose forward pass returns the logits it holds."""

    def __init__(self, logits, sizes):
        self.logits = logits
        self.action_sizes = tuple(sizes)

    def forward(self, obs):
        return self.logits[None, :], np.array([0.5])


@st.composite
def _decisions(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    logit = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-1e3, 0.0, 1e3]))
    logits = np.array(draw(st.lists(logit, min_size=sum(sizes),
                                    max_size=sum(sizes))), dtype=np.float64)
    if draw(st.booleans()):
        return sizes, logits, None
    masks = []
    for size in sizes:
        if draw(st.booleans()):  # all but one masked
            mask = np.zeros(size, dtype=bool)
            mask[draw(st.integers(0, size - 1))] = True
        else:
            mask = np.array(draw(st.lists(st.booleans(), min_size=size,
                                          max_size=size)), dtype=bool)
            mask[draw(st.integers(0, size - 1))] = True
        masks.append(mask)
    return sizes, logits, masks


@settings(max_examples=300, deadline=None)
@given(_decisions(), st.integers(0, 2 ** 32 - 1))
def test_act_samples_and_scores_as_the_distribution(decision, seed):
    sizes, logits, masks = decision
    space = TupleSpace(tuple(Discrete(n) for n in sizes))
    policy = Policy(_FixedLogits(logits, sizes), space, seed=seed)
    taken = policy.act(np.zeros(1), masks)

    dist = MultiCategorical(logits[None, :], sizes, masks=masks)
    action = dist.sample(np.random.default_rng(seed))
    assert taken.action == tuple(action[0].tolist())
    assert _bits(taken.log_prob) == _bits(dist.log_prob(action)[0])
    assert taken.value == 0.5
    expected_masks = masks or [np.ones(n, dtype=bool) for n in sizes]
    assert all(np.array_equal(m, e) and m.dtype == bool
               for m, e in zip(taken.masks, expected_masks))


def test_a_minibatch_takes_one_entropy_pass_per_component(monkeypatch):
    # ``_minibatch_update`` reads the entropy (for its stats) and the
    # entropy's gradient; both share one pass over each component.
    from repro.nn.distributions import Categorical
    from repro.rl import PPOConfig, PPOLearner, SampleBatch

    sizes = (3, 4)
    model = ActorCriticMLP(obs_size=6, action_sizes=sizes,
                           hidden_sizes=(8,), seed=0)
    rng = np.random.default_rng(0)
    obs = rng.normal(size=(16, 6))
    logits, values = model.forward(obs)
    masks = [rng.random((16, n)) < 0.7 for n in sizes]
    for mask in masks:
        mask[:, 0] = True
    dist = MultiCategorical(logits, sizes, masks=masks)
    actions = dist.sample(rng)
    batch = SampleBatch(obs=obs, actions=actions, returns=rng.normal(size=16),
                        value_preds=values, logp_old=dist.log_prob(actions),
                        action_masks=masks)
    learner = PPOLearner(model, PPOConfig(num_sgd_iters=1,
                                          sgd_minibatch_size=16), seed=0)

    passes = []
    entropy = Categorical.entropy
    monkeypatch.setattr(Categorical, "entropy",
                        lambda self: passes.append(self) or entropy(self))
    minibatches = 3
    for _ in range(minibatches):
        learner._minibatch_update(batch, rng.normal(size=16))
    assert len(passes) == minibatches * len(sizes)
    assert len(set(map(id, passes))) == len(passes)
