"""Training harness: initialization, end-to-end gradients, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from poolbench import train as train_module
from poolbench.data import IMAGE_SIZE, make_synthetic
from poolbench.layers import CONV_KERNEL, STAGE_CHANNELS, ToyNetConfig, softmax_cross_entropy
from poolbench.ops import HEADLINE_METHODS, norm_exponent
from poolbench.optim import OptimConfig
from helpers import init_weights, train
from poolbench.train import (
    build_net,
    evaluate,
    forward_backward,
    shared_dataset,
    train_runs,
)

CONFIG = ToyNetConfig()


def micro_batch(rng, n=3, config=CONFIG):
    images = rng.normal(size=(n, 1, IMAGE_SIZE, IMAGE_SIZE))
    labels = rng.integers(0, config.classes, size=n)
    return images, labels


class TestInitWeights:
    def test_same_seed_bit_identical(self):
        a = init_weights("SESMP", ToyNetConfig(), seed=9)
        b = init_weights("SESMP", ToyNetConfig(), seed=9)
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_conv_weights_follow_he_normal(self):
        # 32 replicas of conv2's (16, 8, 3, 3) weight: 36864 draws, fan_in = 8 * 9
        w = build_net("MP", ToyNetConfig(), [np.random.default_rng(s) for s in range(32)]).params()["conv2.weight"]
        expected_std = np.sqrt(2.0 / (STAGE_CHANNELS[0] * CONV_KERNEL**2))
        assert w.std() == pytest.approx(expected_std, rel=0.05)
        assert abs(w.mean()) < 0.2 * expected_std

    def test_head_weights_are_small_gaussian(self):
        params = init_weights("MP", ToyNetConfig(), seed=0)
        assert params["head.weight"].std() == pytest.approx(0.01, rel=0.2)

    def test_norm_exponent_starts_at_three(self):
        params = init_weights("LNP", ToyNetConfig(), seed=0)
        p_raw = params["pool1.p_raw"][0]
        assert p_raw == pytest.approx(np.log(np.expm1(2.0)), abs=1e-12)
        assert norm_exponent(p_raw) == pytest.approx(3.0, abs=1e-12)

    def test_fixed_temperature_ladder(self):
        rng = np.random.default_rng(0)
        net = build_net("SMP_fixed", ToyNetConfig(), rng)
        np.testing.assert_allclose(
            net.pool1.pool_params["tau"],
            np.log(np.arange(1, 9) / 8),  # log(c / C) over the first stage's 8 channels
            atol=1e-12,
        )

    def test_branch_weights_within_uniform_bounds(self):
        params = init_weights("SESMP", ToyNetConfig(), seed=3)
        w1 = params["pool2.se_f1_weight"]  # fan_in = 16 channels
        bound = np.sqrt(6.0 / 16)
        assert np.abs(w1).max() <= bound
        assert not params["pool2.se_f1_bias"].any()


class TestForwardBackward:
    def test_zero_head_gives_log_k(self):
        rng = np.random.default_rng(1)
        net = build_net("MP", CONFIG, rng)
        net.head.weight[...] = 0.0
        net.head.bias[...] = 0.0
        images, labels = micro_batch(rng)
        loss, acc, _ = forward_backward(net, images, labels)
        assert loss == np.log(CONFIG.classes)

    def test_gradients_cover_pooling_parameters(self):
        rng = np.random.default_rng(2)
        net = build_net("SMP_trainable", CONFIG, rng)
        images, labels = micro_batch(rng)
        _, _, grads = forward_backward(net, images, labels)
        assert set(grads) == set(net.params())
        assert grads["pool1.tau"].any()

    @pytest.mark.parametrize("method", list(HEADLINE_METHODS) + ["CONV", "LSE"])
    def test_network_gradient_matches_fd(self, method):
        # frozen micro-net: 50+ random coordinates against central differences
        rng = np.random.default_rng(3)
        net = build_net(method, CONFIG, rng)
        images, labels = micro_batch(rng, n=4)

        def loss_value():
            loss, _, _ = forward_backward(net, images, labels)
            return loss

        _, _, grads = forward_backward(net, images, labels)
        params = net.params()
        flat_names = [
            (name, i) for name in sorted(params) for i in range(params[name].size)
        ]
        rng.shuffle(flat_names)
        h = 1e-6
        checked = 0
        for name, i in flat_names:
            if checked >= 50:
                break
            analytic = grads[name].reshape(-1)[i]
            # below FD resolution at this step size: the quotient's roundoff, about
            # eps * loss / h = 1.5e-10, must stay well under 1e-4 of the gradient
            if abs(analytic) < 1e-5:
                continue
            arr = params[name].reshape(-1)
            saved = arr[i]

            def central(step):
                arr[i] = saved + step
                hi = loss_value()
                arr[i] = saved - step
                lo = loss_value()
                arr[i] = saved
                return (hi - lo) / (2 * step)

            numeric = central(h)
            # a ReLU kink inside the step interval makes the difference
            # quotient step-dependent; skip such non-smooth neighborhoods
            if abs(numeric - central(h / 2)) > 1e-6 * max(1.0, abs(numeric)):
                continue
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
            assert rel < 1e-4, f"{method} {name}[{i}]: {analytic} vs {numeric}"
            checked += 1
        assert checked >= 50


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic(classes=4, samples=400, seed=11, noise=0.1)


class TestTraining:
    def test_single_sample_overfit(self, dataset):
        rng = np.random.default_rng(4)
        one = dataset.train_images[:1]
        label = dataset.train_labels[:1]
        net = build_net("MP", ToyNetConfig(), rng)
        from poolbench.optim import Adam

        adam = Adam(net.flat_params, OptimConfig(lr=1e-2, batch_size=1))
        loss = np.inf
        for _ in range(200):
            loss, _, _ = forward_backward(net, one, label)
            adam.step(net.flat_grads)
        assert loss < 1e-3

    def test_deterministic_reports(self, dataset):
        cfg = OptimConfig(epochs=2, seed=7)
        a = train("GP", dataset, cfg)
        b = train("GP", dataset, cfg)
        assert a == b  # dataclass equality covers every epoch and snapshot

    def test_mp_reaches_90_percent_train_accuracy(self):
        # threshold frozen from the pilot run (it reaches 1.0 by epoch 6)
        dataset = make_synthetic(classes=4, samples=1000, seed=777, noise=0.1)
        report = train("MP", dataset, OptimConfig(seed=1))
        assert not report.diverged
        assert report.final_train_acc >= 0.90

    def test_trainable_temperatures_move(self, dataset):
        report = train("SMP_trainable", dataset, OptimConfig(epochs=3, seed=5))
        initial = init_weights("SMP_trainable", ToyNetConfig(), seed=5)
        trained = np.array(report.snapshots[0].params["tau"])
        assert (trained != initial["pool1.tau"]).any()

    def test_divergence_produces_partial_report(self, dataset):
        def poison(step, net):
            if step == 3:
                net.head.weight[...] = np.inf

        with np.errstate(invalid="ignore"):
            report = train("MP", dataset, OptimConfig(epochs=2, seed=1), step_hook=poison)
        assert report.diverged
        assert "step 4" in report.note
        assert report.snapshots  # snapshots still captured

    def test_overflow_in_evaluation_recorded_as_divergence(self, dataset):
        optim = OptimConfig(epochs=2, batch_size=100, seed=1)
        last = -(-len(dataset.train_images) // optim.batch_size)  # steps in one epoch

        def poison(step, net):
            if step == last:  # after the last step of epoch 1, before its evaluation
                net.conv2.weight[...] = np.inf

        with np.errstate(all="ignore"):
            report = train("MP", dataset, optim, step_hook=poison)
        assert report.diverged
        assert report.note.startswith(f"diverged after step {last}, in evaluation")
        assert report.epochs == []

    def test_degenerate_projection_aborts_run(self, dataset):
        def poison(step, net):
            if step == 2:
                net.pool1.pool_params["ordinal_w"][...] = -1.0

        report = train("OP", dataset, OptimConfig(epochs=1, seed=1), step_hook=poison)
        assert report.diverged
        assert "aborted" in report.note

    def test_epoch_metrics_score_the_held_out_split(self, dataset):
        # after a 1-epoch run the captured net is the one its evaluation scored
        seen = {}
        optim = OptimConfig(epochs=1, seed=3)
        report = train("AP", dataset, optim, step_hook=lambda step, net: seen.update(net=net))
        (epoch,) = report.epochs
        want = evaluate(seen["net"], dataset.test_images, dataset.test_labels, optim.batch_size)
        assert (epoch.test_loss, epoch.test_acc) == want

    def test_evaluate_sums_100_sample_groups_of_sliced_forwards(self, dataset):
        rng = np.random.default_rng(6)
        net = build_net("GP", ToyNetConfig(), [rng])
        images, labels = dataset.images[:230], dataset.labels[:230]
        forward_backward(net, images[:10], labels[:10])  # gradients the call must leave alone
        grads = {name: grad.copy() for name, grad in net.grads().items()}
        # 230 samples in slices of 7: neither divides the other, nor 100
        loss, acc = evaluate(net, images, labels, batch_size=7)
        for name, grad in net.grads().items():
            np.testing.assert_array_equal(grad, grads[name])
        # by hand: one forward of the whole set, loss and accuracy per group of 100
        (logits,) = net.forward(images[None])
        groups = [softmax_cross_entropy(logits[s : s + 100], labels[s : s + 100]) for s in (0, 100, 200)]
        sizes = (100, 100, 30)
        want_loss = sum(size * group[0] for size, group in zip(sizes, groups)) / 230
        want_acc = sum(size * group[2] for size, group in zip(sizes, groups)) / 230
        assert abs(loss - want_loss) <= 1e-12
        assert abs(acc - want_acc) <= 1e-12

    def test_evaluate_rejects_an_empty_set(self, dataset):
        net = build_net("MP", ToyNetConfig(), [np.random.default_rng(6)])
        with pytest.raises(ValueError, match="zero images"):
            evaluate(net, dataset.test_images[:0], dataset.test_labels[:0])

    @pytest.mark.parametrize("method", ["MP", "SESMP"])
    def test_evaluate_scores_a_single_net_as_a_one_replica_stack(self, dataset, method):
        single = build_net(method, ToyNetConfig(), np.random.default_rng(8))
        stack = build_net(method, ToyNetConfig(), [np.random.default_rng(8)])
        images, labels = dataset.images[:130], dataset.labels[:130]
        loss, acc = evaluate(single, images, labels, batch_size=9)
        (stack_loss,), (stack_acc,) = evaluate(stack, images, labels, batch_size=9)
        assert type(loss) is float and type(acc) is float
        assert (loss, acc) == (stack_loss, stack_acc)


#: (method, the step after which a hook poisons one run, the poison, its recorded note)
POISONS = {
    "loss": ("MP", 3, lambda net, row: net.head.weight[row].fill(np.inf), "diverged at step 4: "),
    "evaluation": (
        "GP", 32, lambda net, row: net.conv2.weight[row].fill(np.inf),
        "diverged after step 32, in evaluation: pooling input contains non-finite values",
    ),
    "projection": (
        "OP", 2, lambda net, row: net.pool2.pool_params["ordinal_w"][row].fill(-1.0),
        "aborted at step 3: cannot project",
    ),
}


def seed_runs(optim, seeds):
    return [replace(optim, seed=seed) for seed in seeds]


class TestLockStep:
    """A method's runs train as the replicas of one stacked net, and each
    report is the one its run gives alone, bit for bit."""

    SEEDS = (1, 2, 3)

    @pytest.mark.parametrize("method", ["MP", "NN", "CONV", "OP", "LNP", "LSE", "SMP_fixed", "SESMP", "SEMP"])
    def test_every_replica_reports_its_solo_run(self, dataset, method):
        runs = seed_runs(OptimConfig(epochs=2), self.SEEDS)
        solo = [train(method, dataset, run) for run in runs]
        assert train_runs(method, dataset, runs) == solo

    @pytest.mark.parametrize("method", ["MP", "OP", "LNP", "SESMP"])
    def test_every_learning_rate_reports_its_solo_run(self, dataset, method):
        # one replica steps at a rate that makes it diverge, beside live ones
        runs = [OptimConfig(epochs=2, lr=lr) for lr in (1e-2, 1e300, 1e-3, 1e-5)]
        solo = [train(method, dataset, run) for run in runs]
        assert train_runs(method, dataset, runs) == solo
        assert [run.diverged for run in solo] == [False, True, False, False]

    @pytest.mark.parametrize(
        "other",
        [dict(epochs=3), dict(batch_size=20)],
        ids=["epochs", "batch_size"],
    )
    def test_runs_may_differ_only_in_seed_and_lr(self, dataset, other):
        runs = [OptimConfig(epochs=1, seed=1), replace(OptimConfig(epochs=1, seed=2, lr=1e-3), **other)]
        with pytest.raises(ValueError, match="differ only in seed and lr"):
            train_runs("MP", dataset, runs)

    def test_no_runs_rejected(self, dataset):
        with pytest.raises(ValueError, match="one or more runs"):
            train_runs("MP", dataset, [])

    @pytest.mark.parametrize("failure", sorted(POISONS))
    def test_a_failed_replica_leaves_the_others_as_alone(self, dataset, failure):
        method, at, poison, note = POISONS[failure]
        optim = OptimConfig(epochs=2)

        def poisoned(row):
            return lambda step, net: poison(net, row) if step == at else None

        with np.errstate(all="ignore"):
            stacked = train_runs(method, dataset, seed_runs(optim, self.SEEDS), step_hook=poisoned(1))
            solo = [
                train(method, dataset, replace(optim, seed=seed), step_hook=poisoned(0) if seed == 2 else None)
                for seed in self.SEEDS
            ]
        assert stacked == solo
        assert [r.diverged for r in stacked] == [False, True, False]
        assert stacked[1].note.startswith(note)
        assert len(stacked[0].epochs) == 2

    def test_replicas_that_fail_together_each_get_their_note(self, dataset):
        def poison(step, net):
            if step == 3:
                net.head.weight[:2] = np.inf  # the first two of three replicas

        with np.errstate(all="ignore"):
            reports = train_runs("AP", dataset, seed_runs(OptimConfig(epochs=1), self.SEEDS), step_hook=poison)
        assert [r.diverged for r in reports] == [True, True, False]
        assert all(r.note.startswith("diverged at step 4: non-finite loss") for r in reports[:2])
        assert reports[2] == train("AP", dataset, OptimConfig(epochs=1, seed=3))

    def test_stacked_forward_takes_each_replica_batch(self):
        # replica r of a stacked net owns rows r*B .. (r+1)*B - 1 and gives its single net's loss
        rng = np.random.default_rng(21)
        images, labels = micro_batch(rng, n=6)
        stacked = build_net("SMP_trainable", CONFIG, [np.random.default_rng(s) for s in (4, 5)])
        loss, acc, grads = forward_backward(stacked, images, labels)
        for r, seed in enumerate((4, 5)):
            single = build_net("SMP_trainable", CONFIG, np.random.default_rng(seed))
            want = forward_backward(single, images[3 * r : 3 * r + 3], labels[3 * r : 3 * r + 3])
            assert (loss[r], acc[r]) == want[:2]
            for name, grad in want[2].items():
                np.testing.assert_array_equal(grads[name][r], grad, err_msg=name)


def test_shared_dataset_builds_each_dataset_once(monkeypatch):
    calls = []

    def counting(**kwargs):
        calls.append(kwargs)
        return make_synthetic(**kwargs)

    monkeypatch.setattr(train_module, "make_synthetic", counting)
    train_module._dataset.cache_clear()
    optim = OptimConfig(epochs=1, batch_size=20)
    data = {"classes": 4, "samples": 40, "seed": 3, "noise": 0.1}
    dataset = shared_dataset(data)
    first = train("AP", dataset, optim)
    train("MP", shared_dataset(dict(reversed(list(data.items())))), replace(optim, seed=2))
    again = train("AP", shared_dataset(data), optim)
    train("AP", shared_dataset({**data, "seed": 4}), optim)
    train_module._dataset.cache_clear()
    assert [c["seed"] for c in calls] == [3, 4]
    assert again.epochs == first.epochs
    assert not dataset.images.flags.writeable
