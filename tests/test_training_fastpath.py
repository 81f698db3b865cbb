"""Tests for the fused STBP training fast path.

Gates the hand-derived analytic kernels against the closure-graph
reference: per-policy gradient parity (``check_fused_training_parity``),
layer-level LIF BPTT parity, finite-difference checks on the fused loss,
bit-identical weight trajectories and PVM contents over full ``train()``
runs (with and without permute-assets augmentation, and after
``load_state_dict``, ``copy.deepcopy`` or a multi-seed trainer rebinds
the parameters' storage under the network's training bank), a 200-step
run of the seed's own training loop against both trainer paths, the
in-place optimizer rewrites, the CDF batch sampler, the PVM fast write, and the
``permute_assets`` panel view.
"""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.agents import (
    JiangDRLAgent,
    MultiSeedTrainer,
    PolicyTrainer,
    SDPAgent,
    TrainConfig,
)
from repro.autograd import Tensor, check_fused_training_parity
from repro.autograd.gradcheck import numerical_gradient
from repro.autograd.optim import SGD, Adam, RMSProp
from repro.data import MarketGenerator
from repro.envs import ObservationConfig
from repro.envs.costs import fused_training_loss_banked, transaction_remainder_approx
from repro.envs.pvm import PortfolioVectorMemory
from repro.envs.sampling import GeometricBatchSampler
from repro.snn import LIFParameters, SpikingLinear
from repro.snn.banked import SpikingLinearBank
from repro.snn.surrogate import rectangular
from repro.utils.rng import make_rng

CFG = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))
N_ASSETS = 4


@pytest.fixture(scope="module")
def panel():
    return (
        MarketGenerator(seed=31)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets(list(range(N_ASSETS)))
    )


@pytest.fixture(scope="module")
def batch(panel):
    """A minibatch with drifted weights/relatives, as the trainer builds."""
    rng = np.random.default_rng(5)
    b = 12
    indices = np.arange(20, 20 + b)
    w_prev = rng.dirichlet(np.ones(N_ASSETS + 1), size=b)
    rel = panel.close[1:] / panel.close[:-1]
    relatives = np.concatenate([np.ones((panel.n_periods - 1, 1)), rel], axis=1)
    y_t = relatives[indices - 1]
    growth = w_prev * y_t
    w_drifted = growth / growth.sum(axis=1, keepdims=True)
    return indices, w_prev, w_drifted, relatives[indices]


# ----------------------------------------------------------------------
# Layer-level parity: fused LIF BPTT vs the closure graph
# ----------------------------------------------------------------------
def _unroll_graph(layer, trains):
    layer.reset(trains.shape[1])
    total = None
    for t in range(trains.shape[0]):
        out = layer.step(Tensor(trains[t]))
        total = out if total is None else total + out
    return total


def test_spiking_linear_fused_backward_matches_graph():
    rng = np.random.default_rng(0)
    timesteps, batch, n_in, n_out = 5, 7, 6, 9
    layer = SpikingLinear(n_in, n_out, rng=rng)
    trains = (rng.random((timesteps, batch, n_in)) < 0.4).astype(np.float64)
    g_out = rng.standard_normal((batch, n_out))

    layer.zero_grad()
    total = _unroll_graph(layer, trains)
    total.backward(g_out)
    ref_w, ref_b = layer.weight.grad.copy(), layer.bias.grad.copy()

    layer.zero_grad()
    bank = SpikingLinearBank([layer])
    tape = bank.make_tape(batch, timesteps)
    tape.lif.begin()
    fused_out = np.zeros((batch, n_out))
    for t in range(1, timesteps + 1):
        spikes = bank.step_train(trains[t - 1], tape, t)
        np.add(fused_out, spikes, out=fused_out)
    assert np.array_equal(fused_out, total.data)
    for t in range(timesteps, 0, -1):
        bank.backward_step_train(g_out, trains[t - 1], tape, t,
                                 need_input_grad=False)
    bank.finalize_train_grads(tape)

    assert np.array_equal(layer.weight.grad, ref_w)
    assert np.array_equal(layer.bias.grad, ref_b)


def test_spiking_linear_fused_input_grad_matches_graph():
    """dL/d(input spikes) must match the graph, timestep by timestep."""
    rng = np.random.default_rng(1)
    timesteps, batch, n_in, n_out = 4, 5, 8, 6
    layer = SpikingLinear(n_in, n_out, rng=rng)
    trains = (rng.random((timesteps, batch, n_in)) < 0.5).astype(np.float64)
    g_out = rng.standard_normal((batch, n_out))

    inputs = [Tensor(trains[t], requires_grad=True) for t in range(timesteps)]
    layer.reset(batch)
    total = None
    for t in range(timesteps):
        out = layer.step(inputs[t])
        total = out if total is None else total + out
    layer.zero_grad()
    total.backward(g_out)
    ref_in = [inp.grad.copy() for inp in inputs]

    bank = SpikingLinearBank([layer])
    tape = bank.make_tape(batch, timesteps)
    tape.lif.begin()
    for t in range(1, timesteps + 1):
        bank.step_train(trains[t - 1], tape, t)
    fused_in = {}
    for t in range(timesteps, 0, -1):
        g_in = bank.backward_step_train(g_out, trains[t - 1], tape, t,
                                        need_input_grad=True)
        fused_in[t] = g_in.copy()
    for t in range(timesteps):
        assert np.array_equal(fused_in[t + 1], ref_in[t]), f"t={t}"


def test_lif_params_propagate_through_fused_backward():
    """Non-default decay/threshold/surrogate flow into the kernels."""
    rng = np.random.default_rng(2)
    layer = SpikingLinear(
        5, 4,
        lif=LIFParameters(v_threshold=0.3, current_decay=0.7, voltage_decay=0.6),
        surrogate=rectangular(3.0, 0.7),
        rng=rng,
    )
    trains = (rng.random((3, 6, 5)) < 0.6).astype(np.float64)
    g_out = rng.standard_normal((6, 4))
    layer.zero_grad()
    total = _unroll_graph(layer, trains)
    total.backward(g_out)
    ref_w = layer.weight.grad.copy()

    layer.zero_grad()
    bank = SpikingLinearBank([layer])
    tape = bank.make_tape(6, 3)
    tape.lif.begin()
    for t in range(1, 4):
        bank.step_train(trains[t - 1], tape, t)
    for t in range(3, 0, -1):
        bank.backward_step_train(g_out, trains[t - 1], tape, t,
                                 need_input_grad=False)
    bank.finalize_train_grads(tape)
    assert np.array_equal(layer.weight.grad, ref_w)
    assert np.abs(ref_w).sum() > 0


# ----------------------------------------------------------------------
# Policy-level gradient parity (the gradcheck gate)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make_policy",
    [
        lambda: SDPAgent(N_ASSETS, observation=CFG, architecture="shared",
                         hidden_sizes=(16, 16), encoder_pop_size=4,
                         decoder_pop_size=4, seed=3),
        lambda: SDPAgent(N_ASSETS, observation=CFG, architecture="monolithic",
                         hidden_sizes=(16, 16), encoder_pop_size=4,
                         decoder_pop_size=4, seed=3),
        lambda: JiangDRLAgent(N_ASSETS, observation=CFG, seed=3),
    ],
    ids=["shared", "monolithic", "jiang"],
)
def test_fused_training_parity_gate(panel, batch, make_policy):
    indices, w_prev, w_drifted, y_next = batch
    policy = make_policy()
    diffs = check_fused_training_parity(
        policy, panel, indices, w_prev, w_drifted, y_next, atol=1e-9
    )
    assert diffs
    # The kernels replicate the graph ops exactly; diffs are 0, not ~1e-9.
    assert max(diffs.values()) == 0.0


def test_parity_gate_reports_divergence(panel, batch):
    indices, w_prev, w_drifted, y_next = batch
    policy = SDPAgent(N_ASSETS, observation=CFG, hidden_sizes=(8,),
                      encoder_pop_size=3, decoder_pop_size=3, seed=0)
    original = policy.policy_backward_fused

    def corrupted(grad_actions):
        original(grad_actions * 1.0000001)

    policy.policy_backward_fused = corrupted
    with pytest.raises(AssertionError, match="differs from graph path"):
        check_fused_training_parity(
            policy, panel, indices, w_prev, w_drifted, y_next, atol=1e-12
        )


# ----------------------------------------------------------------------
# The fused loss head
# ----------------------------------------------------------------------
def test_fused_loss_matches_graph_scalars_and_grad(batch):
    _, w_prev, w_drifted, y_next = batch
    rng = np.random.default_rng(7)
    logits = rng.standard_normal(w_prev.shape)
    actions = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)

    a_t = Tensor(actions, requires_grad=True)
    mu = transaction_remainder_approx(Tensor(w_drifted), a_t, 0.0025)
    growth = (a_t * Tensor(y_next)).sum(axis=1)
    log_return = (mu * growth).log()
    loss_t = -log_return.mean()
    loss_t.backward()

    losses, rewards, grad = fused_training_loss_banked(
        actions, w_drifted, y_next, 1, 0.0025
    )
    assert float(losses[0]) == float(loss_t.data)
    assert float(rewards[0]) == float(log_return.data.mean())
    assert np.array_equal(grad, a_t.grad)


def test_fused_loss_grad_matches_finite_differences(batch):
    _, w_prev, w_drifted, y_next = batch
    rng = np.random.default_rng(11)
    logits = rng.standard_normal(w_prev.shape)
    actions = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)

    def loss_fn(a):
        mu = transaction_remainder_approx(Tensor(w_drifted), a, 0.0025)
        growth = (a * Tensor(y_next)).sum(axis=1)
        return -(mu * growth).log().mean()

    _, _, grad = fused_training_loss_banked(actions, w_drifted, y_next, 1, 0.0025)
    numeric = numerical_gradient(loss_fn, [Tensor(actions)], 0, eps=1e-7)
    assert np.allclose(grad, numeric, atol=1e-6)


# ----------------------------------------------------------------------
# Full training runs: bit-identical trajectories
# ----------------------------------------------------------------------
def _train(panel, make_policy, make_opt, use_fused, steps=30, permute=False):
    policy = make_policy()
    trainer = PolicyTrainer(
        policy, panel, make_opt(policy.parameters()), observation=CFG,
        config=TrainConfig(steps=steps, batch_size=16, log_every=10,
                           permute_assets=permute),
        seed=2, use_fused=use_fused,
    )
    history = trainer.train()
    return policy.network.state_dict(), trainer.pvm.snapshot(), history


@pytest.mark.parametrize("permute", [False, True], ids=["plain", "permuted"])
def test_train_run_bit_identical_shared(panel, permute):
    mk = lambda: SDPAgent(N_ASSETS, observation=CFG, hidden_sizes=(16, 16),
                          encoder_pop_size=4, decoder_pop_size=4, seed=1)
    opt = lambda p: Adam(p, 1e-3)
    w_g, pvm_g, h_g = _train(panel, mk, opt, use_fused=False, permute=permute)
    w_f, pvm_f, h_f = _train(panel, mk, opt, use_fused=True, permute=permute)
    assert set(w_g) == set(w_f)
    for key in w_g:
        assert np.array_equal(w_g[key], w_f[key]), key
    assert np.array_equal(pvm_g, pvm_f)
    assert h_g.loss == h_f.loss and h_g.reward == h_f.reward
    # The run actually trained (weights moved off the init).
    init = SDPAgent(N_ASSETS, observation=CFG, hidden_sizes=(16, 16),
                    encoder_pop_size=4, decoder_pop_size=4, seed=1)
    moved = any(
        not np.array_equal(w_f[k], v)
        for k, v in init.network.state_dict().items()
    )
    assert moved


def test_train_run_bit_identical_monolithic(panel):
    mk = lambda: SDPAgent(N_ASSETS, observation=CFG, architecture="monolithic",
                          hidden_sizes=(16, 16), encoder_pop_size=4,
                          decoder_pop_size=4, seed=1)
    opt = lambda p: SGD(p, 1e-4)
    w_g, pvm_g, _ = _train(panel, mk, opt, False, permute=True)
    w_f, pvm_f, _ = _train(panel, mk, opt, True, permute=True)
    for key in w_g:
        assert np.array_equal(w_g[key], w_f[key]), key
    assert np.array_equal(pvm_g, pvm_f)


def test_train_run_bit_identical_jiang(panel):
    mk = lambda: JiangDRLAgent(N_ASSETS, observation=CFG, seed=1)
    opt = lambda p: RMSProp(p, 1e-4)
    w_g, pvm_g, _ = _train(panel, mk, opt, False, permute=True)
    w_f, pvm_f, _ = _train(panel, mk, opt, True, permute=True)
    for key in w_g:
        assert np.array_equal(w_g[key], w_f[key]), key
    assert np.array_equal(pvm_g, pvm_f)


# ----------------------------------------------------------------------
# Seed-faithful training loop: the training step as it stood before the
# fused STBP kernels, value for value but with the seed's costs.  The
# 200-step gate below checks today's trainer still ends where it did.
# ----------------------------------------------------------------------
class _SeedSGD(SGD):
    """SGD with the seed's out-of-place updates (fresh arrays per step)."""

    def step(self):
        self._step_count += 1
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                self._velocity[index] = self.momentum * self._velocity[index] + grad
                grad = self._velocity[index]
            param.data = param.data - self.lr * grad


class _SeedSampler(GeometricBatchSampler):
    """Start sampling via ``rng.choice`` (O(n) per call, same indices)."""

    def sample(self):
        start = self.first_index + self._rng.choice(
            self._probabilities.shape[0], p=self._probabilities
        )
        return np.arange(start, start + self.batch_size, dtype=np.int64)


class _SeedTrainer:
    """The seed's training loop, self-contained: ``rng.choice`` start
    sampling, a chained-fancy-indexing prologue, a ``select_assets``
    panel (full-panel re-validation) on every permuted step, and the
    closure-graph step.  It consumes the trainers' RNG streams (sampler
    ``make_rng(seed)``, permutations ``make_rng(seed + 1)``), so it must
    end bit-identical to them."""

    def __init__(self, policy, data, optimizer, observation, config, seed=0):
        self.policy = policy
        self.data = data
        self.optimizer = optimizer
        self.config = config
        n = data.n_periods
        self.sampler = _SeedSampler(
            max(observation.first_decision_index(), 1),
            n - 2,
            config.batch_size,
            bias=config.geometric_bias,
            rng=make_rng(seed),
        )
        self.perm_rng = make_rng(seed + 1)
        self.pvm = PortfolioVectorMemory(n, data.n_assets)
        rel = data.close[1:] / data.close[:-1]
        self.relatives = np.concatenate([np.ones((n - 1, 1)), rel], axis=1)

    def train_step(self) -> None:
        indices = self.sampler.sample()
        m = self.data.n_assets
        if self.config.permute_assets:
            perm = self.perm_rng.permutation(m)
            view = self.data.select_assets(list(perm))
        else:
            perm = np.arange(m)
            view = self.data
        action_perm = np.concatenate([[0], 1 + perm])
        w_prev = self.pvm.read(indices - 1)[:, action_perm]
        growth = w_prev * self.relatives[indices - 1][:, action_perm]
        w_drifted = growth / growth.sum(axis=1, keepdims=True)
        y_next = self.relatives[indices][:, action_perm]

        actions = self.policy.policy_forward(view, indices, w_prev)
        mu = transaction_remainder_approx(
            Tensor(w_drifted), actions, self.config.commission
        )
        log_return = (mu * (actions * Tensor(y_next)).sum(axis=1)).log()
        loss = -log_return.mean()
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()

        unpermuted = np.empty_like(actions.data)
        unpermuted[:, action_perm] = actions.data
        self.pvm.write(indices, unpermuted)


def test_seed_loop_graph_and_fused_agree_after_200_steps(
    bench_train_panel, bench_trainee
):
    """The seed's loop, the closure-graph trainer and the fused trainer
    end 200 permuted SGD steps of a (32, 32) network with the same
    weights and PVM, bit for bit."""
    config = TrainConfig(steps=200, batch_size=32, permute_assets=True)

    def run(trainer_cls, optimizer_cls, **kwargs):
        agent = bench_trainee(0)
        trainer = trainer_cls(
            agent, bench_train_panel, optimizer_cls(agent.parameters(), 1e-5),
            observation=CFG, config=config, seed=0, **kwargs,
        )
        for _ in range(config.steps):
            trainer.train_step()
        return agent.network.state_dict(), trainer.pvm.snapshot()

    w_f, pvm_f = run(PolicyTrainer, SGD, use_fused=True)
    for w, pvm in (
        run(_SeedTrainer, _SeedSGD),
        run(PolicyTrainer, SGD, use_fused=False),
    ):
        assert set(w) == set(w_f)
        for key in w:
            assert np.array_equal(w[key], w_f[key]), key
        assert np.array_equal(pvm, pvm_f)


# ----------------------------------------------------------------------
# The network's one-seed training bank follows its parameters' storage
# ----------------------------------------------------------------------
# A bank rebinds each Parameter.data to a slice of its own storage;
# load_state_dict, copy.deepcopy and a later MultiSeedTrainer rebind it
# again.  Fused training must notice and rebuild its bank rather than
# train on the stale storage — so in each scenario below it must stay
# bit-identical to the graph path.
OWNERSHIP_TRAIN = TrainConfig(steps=8, batch_size=16, permute_assets=True)


def _sdp_agent(architecture):
    return SDPAgent(N_ASSETS, observation=CFG, architecture=architecture,
                    hidden_sizes=(16, 16), encoder_pop_size=4,
                    decoder_pop_size=4, seed=1)


def _phase_trainer(panel, agent, optimizer, use_fused, seed):
    return PolicyTrainer(agent, panel, optimizer, observation=CFG,
                         config=OWNERSHIP_TRAIN, seed=seed, use_fused=use_fused)


def _assert_runs_equal(graph, fused):
    (w_g, pvms_g), (w_f, pvms_f) = graph, fused
    assert set(w_g) == set(w_f)
    for key in w_g:
        assert np.array_equal(w_g[key], w_f[key]), key
    assert len(pvms_g) == len(pvms_f)
    for pvm_g, pvm_f in zip(pvms_g, pvms_f):
        assert np.array_equal(pvm_g, pvm_f)


@pytest.mark.parametrize("architecture", ["shared", "monolithic"])
def test_fused_training_after_load_state_dict(panel, architecture):
    def run(use_fused):
        agent = _sdp_agent(architecture)
        init = agent.network.state_dict()
        trainer = _phase_trainer(
            panel, agent, Adam(agent.parameters(), 1e-3), use_fused, seed=2
        )
        trainer.train()
        agent.network.load_state_dict(init)
        trainer.train()
        return agent.network.state_dict(), [trainer.pvm.snapshot()]

    _assert_runs_equal(run(False), run(True))


@pytest.mark.parametrize("architecture", ["shared", "monolithic"])
def test_fused_training_on_deepcopied_agent(panel, architecture):
    def run(use_fused):
        agent = _sdp_agent(architecture)
        _phase_trainer(
            panel, agent, Adam(agent.parameters(), 1e-3), use_fused, seed=2
        ).train()
        trained = agent.network.state_dict()
        clone = copy.deepcopy(agent)
        trainer = _phase_trainer(
            panel, clone, Adam(clone.parameters(), 1e-3), use_fused, seed=5
        )
        trainer.train()
        # Training the copy leaves the original untouched.
        _assert_runs_equal((trained, []), (agent.network.state_dict(), []))
        return clone.network.state_dict(), [trainer.pvm.snapshot()]

    _assert_runs_equal(run(False), run(True))


@pytest.mark.parametrize("architecture", ["shared", "monolithic"])
def test_fused_training_around_multiseed_trainer(panel, architecture):
    """Serial steps, then a MultiSeedTrainer over the same network, then
    more serial steps; the reference runs every phase on the graph."""

    def run(use_fused):
        agent = _sdp_agent(architecture)
        optimizer = Adam(agent.parameters(), 1e-3)
        serial = _phase_trainer(panel, agent, optimizer, use_fused, seed=2)
        serial.train()
        if use_fused:
            middle = MultiSeedTrainer(
                [agent], panel, [optimizer], observation=CFG,
                config=OWNERSHIP_TRAIN, seeds=[5],
            )
            middle.train()
            middle_pvm = middle.pvms[0].snapshot()
        else:
            middle = _phase_trainer(panel, agent, optimizer, False, seed=5)
            middle.train()
            middle_pvm = middle.pvm.snapshot()
        serial.train()
        return agent.network.state_dict(), [middle_pvm, serial.pvm.snapshot()]

    _assert_runs_equal(run(False), run(True))


@pytest.mark.parametrize("architecture", ["shared", "monolithic"])
def test_training_bank_does_not_keep_its_network_alive(panel, architecture):
    """The network holds its bank; a bank → network reference would be a
    cycle that keeps a discarded network's tapes alive until the cyclic
    GC runs."""
    agent = _sdp_agent(architecture)
    _phase_trainer(
        panel, agent, SGD(agent.parameters(), 1e-4), True, seed=2
    ).train(2)
    network = weakref.ref(agent.network)
    gc.disable()
    try:
        del agent
        assert network() is None
    finally:
        gc.enable()


def test_trainer_routing_and_validation(panel):
    agent = SDPAgent(N_ASSETS, observation=CFG, hidden_sizes=(8,),
                     encoder_pop_size=3, decoder_pop_size=3, seed=0)
    trainer = PolicyTrainer(agent, panel, SGD(agent.parameters(), 1e-5),
                            observation=CFG,
                            config=TrainConfig(steps=5, batch_size=16), seed=0)
    assert trainer.use_fused  # auto-detected

    class GraphOnly:
        def policy_forward(self, data, indices, w_prev):
            raise NotImplementedError

        def parameters(self):
            return [Tensor(np.zeros(1), requires_grad=True)]

    with pytest.raises(ValueError, match="use_fused=True"):
        PolicyTrainer(GraphOnly(), panel, SGD([Tensor(np.zeros(1), requires_grad=True)], 1e-5),
                      observation=CFG, config=TrainConfig(steps=5, batch_size=16),
                      use_fused=True)
    graph_only_trainer = PolicyTrainer(
        GraphOnly(), panel, SGD([Tensor(np.zeros(1), requires_grad=True)], 1e-5),
        observation=CFG, config=TrainConfig(steps=5, batch_size=16),
    )
    assert not graph_only_trainer.use_fused


# ----------------------------------------------------------------------
# In-place optimizers: bit-identical to the out-of-place formulas
# ----------------------------------------------------------------------
def _reference_sgd(data, grad, vel, lr, momentum, wd):
    if wd:
        grad = grad + wd * data
    if momentum:
        vel = momentum * vel + grad
        grad = vel
    return data - lr * grad, vel


@pytest.mark.parametrize("momentum,wd", [(0.0, 0.0), (0.9, 0.0), (0.9, 1e-2)])
def test_sgd_inplace_bit_identical(momentum, wd):
    rng = np.random.default_rng(0)
    param = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
    expect = param.data.copy()
    vel = np.zeros_like(expect)
    opt = SGD([param], lr=1e-3, momentum=momentum, weight_decay=wd)
    for _ in range(5):
        grad = rng.standard_normal(param.data.shape)
        param.grad = grad.copy()
        expect, vel = _reference_sgd(expect, grad, vel, 1e-3, momentum, wd)
        opt.step()
        assert np.array_equal(param.data, expect)


def test_rmsprop_inplace_bit_identical():
    rng = np.random.default_rng(1)
    param = Tensor(rng.standard_normal(9), requires_grad=True)
    expect = param.data.copy()
    avg = np.zeros_like(expect)
    opt = RMSProp([param], lr=1e-3, alpha=0.95, weight_decay=1e-3)
    for _ in range(5):
        grad = rng.standard_normal(9)
        param.grad = grad.copy()
        g = grad + 1e-3 * expect
        avg *= 0.95
        avg += (1.0 - 0.95) * g * g
        expect = expect - 1e-3 * g / (np.sqrt(avg) + opt.eps)
        opt.step()
        assert np.array_equal(param.data, expect)


def test_adam_inplace_bit_identical():
    rng = np.random.default_rng(2)
    param = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    expect = param.data.copy()
    m = np.zeros_like(expect)
    v = np.zeros_like(expect)
    opt = Adam([param], lr=1e-3, weight_decay=1e-2)
    for step in range(1, 6):
        grad = rng.standard_normal(expect.shape)
        param.grad = grad.copy()
        g = grad + 1e-2 * expect
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        m_hat = m / (1.0 - opt.beta1 ** step)
        v_hat = v / (1.0 - opt.beta2 ** step)
        expect = expect - 1e-3 * m_hat / (np.sqrt(v_hat) + opt.eps)
        opt.step()
        assert np.array_equal(param.data, expect)


def test_optimizers_do_not_alias_grad_or_state():
    """The in-place update must never write into param.grad."""
    param = Tensor(np.ones(4), requires_grad=True)
    opt = Adam([param], lr=1e-2)
    grad = np.full(4, 0.5)
    param.grad = grad
    opt.step()
    assert np.array_equal(grad, np.full(4, 0.5))


# ----------------------------------------------------------------------
# Sampler: CDF inversion identical to rng.choice
# ----------------------------------------------------------------------
def test_sampler_matches_rng_choice_stream():
    sampler = GeometricBatchSampler(5, 400, 16, bias=5e-3, rng=make_rng(9))
    reference_rng = make_rng(9)
    probs = sampler.start_distribution()
    starts = [int(s[0]) for s in (sampler.sample() for _ in range(500))]
    expected = [
        5 + int(reference_rng.choice(probs.shape[0], p=probs))
        for _ in range(500)
    ]
    assert starts == expected
    # Identical stream consumption: the next draws agree too.
    assert sampler._rng.random() == reference_rng.random()


def test_sampler_batches_are_consecutive():
    sampler = GeometricBatchSampler(3, 60, 8, rng=make_rng(0))
    for _ in range(50):
        batch = sampler.sample()
        assert batch.shape == (8,)
        assert np.array_equal(np.diff(batch), np.ones(7, dtype=np.int64))
        assert batch[0] >= 3 and batch[-1] <= 60


# ----------------------------------------------------------------------
# PVM fast write + range-check hoist
# ----------------------------------------------------------------------
def test_pvm_validate_flag():
    pvm = PortfolioVectorMemory(10, 2)
    bad = np.array([[0.9, 0.9, 0.9]])
    with pytest.raises(ValueError):
        pvm.write([3], bad)
    pvm.write([3], bad, validate=False)  # hot path skips the simplex check
    assert np.array_equal(pvm.read([3]), bad)
    with pytest.raises(IndexError):
        pvm.write([10], bad, validate=False)  # range always checked
    with pytest.raises(IndexError):
        pvm.read([-1])
    with pytest.raises(IndexError):
        pvm.read([10])


def test_pvm_read_returns_copy():
    pvm = PortfolioVectorMemory(6, 2)
    rows = pvm.read([1, 2])
    rows[:] = 0.0
    assert np.allclose(pvm.read([1, 2]), 1.0 / 3.0)


# ----------------------------------------------------------------------
# permute_assets: the trainer's fast panel view
# ----------------------------------------------------------------------
def test_permute_assets_matches_select_assets(panel):
    perm = np.array([2, 0, 3, 1])
    fast = panel.permute_assets(perm)
    slow = panel.select_assets(list(perm))
    assert fast.names == slow.names
    for attr in ("open", "high", "low", "close", "volume"):
        assert np.array_equal(getattr(fast, attr), getattr(slow, attr))
    assert np.array_equal(fast.log_close_panel(), slow.log_close_panel())
    assert np.array_equal(fast.log_candle_panel(), slow.log_candle_panel())
    assert np.array_equal(fast.feature_panel(True), slow.feature_panel(True))


def test_permute_assets_rejects_non_permutations(panel):
    with pytest.raises(ValueError):
        panel.permute_assets([0, 1, 2])
    with pytest.raises(ValueError):
        panel.permute_assets([0, 0, 1, 2])
