import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gradient_check_report
from subteam import trainer
from subteam.encoder import init_params, save_checkpoint
from subteam.errors import NonFiniteLossError, ParseError, ValidationError
from subteam.graph import SocialNetwork, Team, generate_synthetic
from subteam.trainer import TrainConfig, sample_subteam, split_teams, train


def make_teams(count, size=4, n=20, seed=0):
    rng = np.random.default_rng(seed)
    return [Team(tuple(rng.choice(n, size=size, replace=False))) for _ in range(count)]


class TestSplitTeams:
    def test_sizes(self):
        teams = make_teams(10)
        tr, va, te = split_teams(teams, (0.6, 0.2, 0.2), seed=1)
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_deterministic(self):
        teams = make_teams(13)
        assert split_teams(teams, (0.6, 0.2, 0.2), 5) == split_teams(teams, (0.6, 0.2, 0.2), 5)

    def test_all_train(self):
        teams = make_teams(7)
        tr, va, te = split_teams(teams, (1.0, 0.0, 0.0), seed=0)
        assert len(tr) == 7 and not va and not te

    def test_remainder_goes_to_train(self):
        teams = make_teams(11)
        tr, va, te = split_teams(teams, (0.6, 0.2, 0.2), seed=2)
        assert (len(tr), len(va), len(te)) == (7, 2, 2)

    def test_partition_is_exact(self):
        teams = make_teams(9)
        tr, va, te = split_teams(teams, (0.5, 0.25, 0.25), seed=3)
        combined = sorted((t.members for t in tr + va + te))
        assert combined == sorted(t.members for t in teams)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            split_teams([], (0.6, 0.2, 0.2), 0)


class TestSampleSubteam:
    def test_pair_team_always_single(self):
        rng = np.random.default_rng(0)
        team = Team((3, 9))
        for _ in range(20):
            assert len(sample_subteam(team, (0.1, 0.9), rng)) == 1

    def test_fixed_fraction_fixed_size(self):
        rng = np.random.default_rng(1)
        team = Team((0, 1, 2, 3))
        for _ in range(20):
            assert len(sample_subteam(team, (0.5, 0.5), rng)) == 2

    def test_singleton_team_skipped(self):
        rng = np.random.default_rng(2)
        assert sample_subteam(Team((4,)), (0.2, 0.8), rng) is None

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 2**31 + 5])
    def test_same_draws_as_choosing_from_the_members(self, seed):
        # drawing positions and indexing a member array built once takes the
        # same random stream as rng.choice over the members, so subteams repeat
        teams = [Team(tuple(range(3 * i, 3 * i + size))) for i, size in enumerate(range(1, 40))]
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        arrays = [np.asarray(team.members) for team in teams]
        for _ in range(3):
            for team, members in zip(teams, arrays):
                got = sample_subteam(members, (0.25, 0.75), fast)
                if len(team) < 2:
                    assert got is None
                    continue
                k = int(round(slow.uniform(0.25, 0.75) * len(team)))
                k = min(max(k, 1), len(team) - 1)
                chosen = slow.choice(np.asarray(team.members), size=k, replace=False)
                assert got == tuple(sorted(int(v) for v in chosen))
        assert fast.bit_generator.state == slow.bit_generator.state

    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_strict_nonempty_subset(self, size, seed):
        rng = np.random.default_rng(seed)
        team = Team(tuple(range(0, 3 * size, 3)))
        sub = sample_subteam(team, (0.05, 0.95), rng)
        assert 1 <= len(sub) <= len(team) - 1
        assert set(sub) < set(team.members)


class TestTrainConfigValidation:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)

    def test_bad_fraction_range_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(subteam_fraction_range=(0.0, 0.5))
        with pytest.raises(ValidationError):
            TrainConfig(subteam_fraction_range=(0.5, 1.0))

    def test_split_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            TrainConfig(split=(0.5, 0.2, 0.2))


@pytest.fixture(scope="module")
def small_instance():
    net, teams = generate_synthetic(
        n=20, d=8, k_planted=4, p_in=0.8, p_out=0.1, teams=12, seed=3
    )
    return net, teams


class TestGradientCheck:
    def test_full_loss_on_synthetic_instance(self, small_instance):
        net, teams = small_instance
        params = init_params(net.d, (6, 5), 3, np.random.default_rng(1))
        report = gradient_check_report(net, teams, params, eps=1e-4)
        assert set(report) == {"contra", "skill", "structural", "clustering", "total"}
        for term, err in report.items():
            assert err < 1e-4, (term, err)

    def test_halving_eps_shrinks_or_floors(self, small_instance):
        net, teams = small_instance
        params = init_params(net.d, (5,), 3, np.random.default_rng(2))
        coarse = max(gradient_check_report(net, teams, params, eps=2e-3).values())
        fine = max(gradient_check_report(net, teams, params, eps=1e-3).values())
        assert fine <= coarse * 1.05 or fine < 1e-7


class TestTrain:
    def test_single_epoch_changes_params_once(self, small_instance):
        net, teams = small_instance
        cfg = TrainConfig(epochs=1, hidden=(6,), clusters=3, split=(1.0, 0.0, 0.0), seed=4)
        params, log = train(net, teams, cfg)
        assert len(log) == 1
        init = init_params(net.d, (6,), 3, np.random.default_rng([4, 0]))
        assert not np.array_equal(params.layer_weights[0], init.layer_weights[0])

    def test_fixed_seed_bit_identical_checkpoint(self, small_instance, tmp_path):
        net, teams = small_instance
        cfg = TrainConfig(epochs=5, hidden=(6,), clusters=3, seed=7)
        a, log_a = train(net, teams, cfg)
        b, log_b = train(net, teams, cfg)
        save_checkpoint(a, tmp_path / "a.json")
        save_checkpoint(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        masked_a = [(e.epoch, e.total, e.val_contra) for e in log_a]
        masked_b = [(e.epoch, e.total, e.val_contra) for e in log_b]
        assert masked_a == masked_b

    def test_descent_on_planted_partition(self):
        net, teams = generate_synthetic(
            n=40, d=16, k_planted=4, p_in=0.8, p_out=0.05, teams=30, seed=11
        )
        params, log = train(net, teams, TrainConfig(epochs=50, seed=0))
        assert log[-1].total < log[0].total
        assert all(np.all(np.isfinite(w)) for w in params.layer_weights)

    def test_nonfinite_loss_aborts_with_term_name(self):
        # overflow-scale features drive the first pass's embeddings past the
        # float maximum; training refuses them without a warning
        from conftest import net_from_dense

        feats = np.array([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]])
        net = net_from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]], feats)
        teams = [Team((0, 1, 2)), Team((0, 2))]
        cfg = TrainConfig(epochs=3, hidden=(4,), clusters=2, split=(1.0, 0, 0), seed=0)
        with pytest.raises(NonFiniteLossError) as err:
            train(net, teams, cfg)
        assert err.value.term == "embeddings' sum of squares"
        assert err.value.epoch == 1

    def test_returns_best_validation_params(self, small_instance):
        net, teams = small_instance
        cfg = TrainConfig(epochs=8, hidden=(6,), clusters=3, seed=9, split=(0.5, 0.5, 0.0))
        params, log = train(net, teams, cfg)
        vals = [e.val_contra for e in log]
        assert all(v is not None for v in vals)
        assert min(vals) <= vals[-1]

    def test_empty_teams_rejected(self, small_instance):
        net, _ = small_instance
        with pytest.raises(ValidationError):
            train(net, [], TrainConfig(epochs=1))

    def test_network_without_features_rejected(self, small_instance):
        net, teams = small_instance
        featureless = SocialNetwork(adjacency=net.adjacency, features=net.features[:, :0])
        with pytest.raises(ValidationError, match="without features"):
            train(featureless, teams, TrainConfig(epochs=1))

    @pytest.mark.parametrize(
        "singletons, split", [(False, (0.0, 0.0, 1.0)), (True, (1.0, 0.0, 0.0))],
        ids=["no-training-teams", "only-singletons"],
    )
    def test_training_split_without_a_team_to_split_rejected(
        self, small_instance, monkeypatch, singletons, split
    ):
        net, teams = small_instance
        if singletons:
            teams = [Team(team.members[:1]) for team in teams]
        monkeypatch.setattr(trainer, "init_params", lambda *args: pytest.fail("initialised"))
        with pytest.raises(ValidationError, match="no team of 2 or more members"):
            train(net, teams, TrainConfig(epochs=1, split=split))

    def test_cluster_count_above_n_rejected(self, small_instance):
        net, teams = small_instance
        train(net, teams, TrainConfig(epochs=1, clusters=net.n))
        with pytest.raises(ValidationError, match="exceeds the node count"):
            train(net, teams, TrainConfig(epochs=1, clusters=net.n + 1))


def test_training_epoch_allocates_no_n_by_n_array():
    # narrow layers and few clusters keep the n-by-(d, k, hidden) arrays small,
    # so a single dense n x n float64 array would stand out against the bound
    n = 1200
    net, teams = generate_synthetic(
        n=n, d=16, k_planted=12, p_in=0.1, p_out=0.002, teams=100, seed=0
    )
    cfg = TrainConfig(epochs=1, hidden=(8, 8), clusters=8, seed=0)
    tracemalloc.start()
    try:
        train(net, teams, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2, f"traced peak {peak / 1e6:.1f} MB"


def _sequential_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_train_log_total_has_the_sequential_sums_bits(tmp_path):
    rng = np.random.default_rng(3)
    walls = rng.lognormal(3.0, 2.0, 200).tolist()
    assert float(np.sum(walls)).hex() != _sequential_sum(walls).hex()  # the order shows
    log = [trainer.EpochStats(e, *rng.random(5).tolist(), None, w) for e, w in enumerate(walls, 1)]
    path = tmp_path / "train.log"
    trainer.write_train_log(log, path)
    assert trainer.read_total_wall_ms(path).hex() == _sequential_sum(walls).hex()
    commented = tmp_path / "commented.log"
    lines = path.read_text().splitlines(keepends=True)
    commented.write_text("".join(lines[:50] + ["\n", "  # resumed\n"] + lines[50:]))
    assert trainer.read_total_wall_ms(commented).hex() == _sequential_sum(walls).hex()


@pytest.mark.parametrize("wall", ["1_0.5", "\u0661.5", "2e\u0661"])
def test_train_log_refuses_a_wall_ms_that_is_not_in_ascii_digits(tmp_path, wall):
    path = tmp_path / "train.log"
    path.write_text(f"# epoch\twall_ms\n1\t2.0\n2\t{wall}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"train\.log:3: numbers are written in ASCII digits"):
        trainer.read_total_wall_ms(path)
