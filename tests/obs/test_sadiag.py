"""SA diagnostics: epoch folding, acceptance rates, effectiveness."""

from repro.core import Collie
from repro.obs import (
    FlightRecorder,
    RunJournal,
    per_chain_diagnostics,
    read_journal,
    render_sa_diagnostics,
)
from repro.obs.folds import (
    Annealing,
    FirstAnomaly,
    TemperatureEpochs,
    run_folds,
)


def fold_epochs(records):
    return run_folds(records, TemperatureEpochs())[0].result()


def acceptance_rate(records):
    return run_folds(records, Annealing())[0].result()


def mutation_effectiveness(records):
    return run_folds(records, Annealing())[0].dimensions()


def time_to_first_anomaly(records):
    return run_folds(records, FirstAnomaly())[0].result()


def time_to_first_anomaly_by_symptom(records):
    return run_folds(records, FirstAnomaly())[0].symptoms()


def transition(action, temperature, mutated=(), chain=None):
    record = {
        "t": "transition",
        "time_seconds": 0.0,
        "action": action,
        "temperature": temperature,
        "delta": 0.0,
        "mutated": list(mutated),
    }
    if chain is not None:
        record["chain"] = chain
    return record


SYNTHETIC = [
    transition("improve", 1.0, ["mtu"]),
    transition("accept", 1.0, ["num_qps"]),
    transition("reject", 1.0, ["mtu"]),
    transition("reject", 1.0, ["qp_type"]),
    transition("improve", 0.5, ["mtu"]),
    transition("reject", 0.5, ["num_qps"]),
    transition("restart", 1.0),
]


class TestEpochs:
    def test_folds_on_temperature_change(self):
        epochs = fold_epochs(SYNTHETIC)
        assert [e.temperature for e in epochs] == [1.0, 0.5, 1.0]

    def test_epoch_acceptance_rates(self):
        first, second, third = fold_epochs(SYNTHETIC)
        assert first.acceptance_rate == 0.5   # improve+accept out of 4
        assert second.acceptance_rate == 0.5  # improve out of 2
        assert third.acceptance_rate is None  # restart is not a decision

    def test_overall_acceptance_rate(self):
        assert acceptance_rate(SYNTHETIC) == 0.5
        assert acceptance_rate([]) is None


class TestEffectiveness:
    def test_per_dimension_counts(self):
        stats = {s.dimension: s for s in mutation_effectiveness(SYNTHETIC)}
        assert stats["mtu"].mutations == 3
        assert stats["mtu"].improvements == 2
        assert stats["mtu"].effectiveness == 2 / 3
        assert stats["qp_type"].improvements == 0

    def test_sorted_most_effective_first(self):
        stats = mutation_effectiveness(SYNTHETIC)
        rates = [s.effectiveness for s in stats]
        assert rates == sorted(rates, reverse=True)


class TestTimeToFirstAnomaly:
    def test_first_anomalous_experiment_wins(self):
        records = [
            {"t": "experiment", "time_seconds": 10.0, "symptom": "healthy"},
            {"t": "experiment", "time_seconds": 20.0, "symptom": "pfc_storm"},
            {"t": "experiment", "time_seconds": 30.0, "symptom": "pfc_storm"},
        ]
        assert time_to_first_anomaly(records) == 20.0

    def test_none_when_never_anomalous(self):
        records = [
            {"t": "experiment", "time_seconds": 10.0, "symptom": "healthy"},
        ]
        assert time_to_first_anomaly(records) is None

    def test_split_by_symptom_keeps_first_hit_each(self):
        records = [
            {"t": "experiment", "time_seconds": 10.0, "symptom": "healthy"},
            {"t": "experiment", "time_seconds": 20.0,
             "symptom": "pause frame"},
            {"t": "experiment", "time_seconds": 25.0,
             "symptom": "latency inflation"},
            {"t": "experiment", "time_seconds": 30.0,
             "symptom": "pause frame"},
        ]
        by_symptom = time_to_first_anomaly_by_symptom(records)
        assert by_symptom == {
            "pause frame": 20.0, "latency inflation": 25.0,
        }
        # Sorted by first-hit time, not alphabetically.
        assert list(by_symptom) == ["pause frame", "latency inflation"]

    def test_split_is_empty_when_never_anomalous(self):
        assert time_to_first_anomaly_by_symptom([]) == {}


# An interleaved tempering journal: chain 0 anneals the hot rung
# (t0=1.0), chain 1 the cold rung (t0=0.5); chain 1 adopts one replica
# exchange and finds an anomaly.
POPULATION = [
    transition("improve", 1.0, ["mtu"], chain=0),
    transition("reject", 0.5, ["num_qps"], chain=1),
    transition("reject", 1.0, ["mtu"], chain=0),
    transition("accept", 0.5, ["mtu"], chain=1),
    transition("exchange", 0.5, chain=1),
    transition("improve", 0.25, ["num_qps"], chain=1),
    {"t": "experiment", "time_seconds": 40.0, "symptom": "pfc_storm",
     "chain": 1},
]


class TestPerChainSplit:
    def test_split_keys_in_first_appearance_order(self):
        chains = per_chain_diagnostics(POPULATION)
        assert [d.chain for d in chains] == [0, 1]
        assert [d.decisions for d in chains] == [2, 3]

    def test_unstamped_journal_folds_into_one_stream(self):
        (entry,) = per_chain_diagnostics(SYNTHETIC)
        assert entry.chain is None
        assert entry.decisions == 6

    def test_per_chain_acceptance_and_exchanges(self):
        by_chain = {d.chain: d for d in per_chain_diagnostics(POPULATION)}
        assert by_chain[0].acceptance == 0.5   # improve out of 2
        assert by_chain[0].exchanges == 0
        assert by_chain[1].acceptance == 2 / 3  # accept+improve out of 3
        assert by_chain[1].exchanges == 1

    def test_t0_identifies_the_ladder_rung(self):
        by_chain = {d.chain: d for d in per_chain_diagnostics(POPULATION)}
        assert by_chain[0].t0 == 1.0
        assert by_chain[1].t0 == 0.5

    def test_ttfa_is_attributed_to_the_finding_chain(self):
        by_chain = {d.chain: d for d in per_chain_diagnostics(POPULATION)}
        assert by_chain[0].ttfa is None
        assert by_chain[1].ttfa == 40.0

    def test_best_dimension_is_per_chain(self):
        by_chain = {d.chain: d for d in per_chain_diagnostics(POPULATION)}
        assert by_chain[0].best_dimension == "mtu"

    def test_unstamped_fallback_matches_whole_journal_folds(self):
        (entry,) = per_chain_diagnostics(SYNTHETIC)
        assert entry.chain is None
        assert entry.acceptance == acceptance_rate(SYNTHETIC)
        assert entry.t0 == 1.0
        assert entry.exchanges == 0

    def test_exchange_transitions_fold_into_epochs(self):
        epochs = fold_epochs(POPULATION)
        assert sum(e.exchange for e in epochs) == 1
        # exchange is a schedule event, not a Metropolis decision.
        records = [transition("exchange", 0.5, chain=1)]
        (epoch,) = fold_epochs(records)
        assert epoch.decisions == 0
        assert acceptance_rate(records) is None


class TestRender:
    def test_renders_synthetic_records(self):
        text = render_sa_diagnostics(SYNTHETIC)
        assert "acceptance" in text
        assert "mtu" in text

    def test_renders_without_transitions(self):
        assert "no transition records" in render_sa_diagnostics([])

    def test_renders_per_chain_split_for_population_journals(self):
        text = render_sa_diagnostics(POPULATION)
        assert "per-chain split:" in text
        assert "best dimension" in text

    def test_legacy_journals_render_without_chain_section(self):
        assert "per-chain split" not in render_sa_diagnostics(SYNTHETIC)

    def test_renders_a_real_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        Collie.for_subsystem(
            "H", budget_hours=1.0, seed=2, recorder=recorder
        ).run()
        recorder.close()
        records = read_journal(path)
        text = render_sa_diagnostics(records)
        assert "acceptance" in text
