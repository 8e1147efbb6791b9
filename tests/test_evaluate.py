
import numpy as np
import pytest

from vadpipe.evaluate import (class_accuracy, clip_statistic, fpr_at_tpr,
                              roc_sweep, run_eval)
from vadpipe.pipeline import PipelineConfig
from vadpipe.postprocess import final_decision, vote_with_fallback
from vadpipe.synth import generate_corpus


def mann_whitney_auc(scores):
    """Pairwise oracle: P(pos > neg) + 0.5 P(pos == neg)."""
    pos = [s for s, t in scores if t == 1]
    neg = [s for s, t in scores if t == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestClassAccuracy:
    def test_all_nonspeech_rejected_is_perfect(self):
        decisions = [(0, "non_speech")] * 5
        assert class_accuracy(decisions) == {"non_speech": 1.0}

    def test_three_of_four(self):
        decisions = [(1, "noisy_speech")] * 3 + [(0, "noisy_speech")]
        assert class_accuracy(decisions)["noisy_speech"] == 0.75

    def test_reported_accuracy_echoes_scripted_decisions(self):
        # scripted noisy-speech outcomes at the three published operating points
        for hits, expected in ((159, 0.159), (664, 0.664), (899, 0.899)):
            decisions = [(1, "noisy_speech")] * hits + [(0, "noisy_speech")] * (1000 - hits)
            assert class_accuracy(decisions)["noisy_speech"] == pytest.approx(expected)

    def test_order_invariant(self, rng):
        decisions = [(int(rng.integers(0, 2)), label)
                     for label in ["clean_speech", "noisy_speech", "non_speech"] * 20]
        shuffled = list(decisions)
        rng.shuffle(shuffled)
        assert class_accuracy(decisions) == class_accuracy(shuffled)

    def test_absent_class_omitted(self):
        out = class_accuracy([(1, "clean_speech")])
        assert "non_speech" not in out


class TestRocSweep:
    def test_perfect_separation(self):
        scores = [(2.0, 1), (3.0, 1), (0.5, 0), (0.1, 0)]
        assert roc_sweep(scores).auc == pytest.approx(1.0)

    def test_identical_scores_degenerate(self):
        scores = [(1.0, 1), (1.0, 1), (1.0, 0)]
        assert roc_sweep(scores).auc == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_sweep([(1.0, 1), (2.0, 1)])

    def test_matches_mann_whitney_with_ties(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 60))
            raw = rng.integers(0, 8, size=n) / 2.0  # coarse grid forces ties
            truths = rng.integers(0, 2, size=n)
            if truths.sum() in (0, n):
                continue
            scores = list(zip(raw.tolist(), truths.tolist()))
            assert roc_sweep(scores).auc == pytest.approx(mann_whitney_auc(scores), abs=1e-9)

    def test_negation_identity(self, rng):
        n = 50
        raw = rng.uniform(0, 1, size=n)
        truths = np.r_[np.ones(25, dtype=int), np.zeros(25, dtype=int)]
        fwd = roc_sweep(list(zip(raw.tolist(), truths.tolist()))).auc
        rev = roc_sweep(list(zip((-raw).tolist(), truths.tolist()))).auc
        assert fwd + rev == pytest.approx(1.0, abs=1e-9)

    def test_curve_monotone_and_anchored(self, rng):
        raw = rng.uniform(0, 1, size=40)
        truths = rng.integers(0, 2, size=40)
        truths[0], truths[1] = 0, 1
        curve = roc_sweep(list(zip(raw.tolist(), truths.tolist())))
        tprs = [p[1] for p in curve.points]
        fprs = [p[2] for p in curve.points]
        ths = [p[0] for p in curve.points]
        assert ths == sorted(ths, reverse=True)
        assert tprs == sorted(tprs) and fprs == sorted(fprs)
        assert (tprs[0], fprs[0]) == (0.0, 0.0)
        assert (tprs[-1], fprs[-1]) == (1.0, 1.0)

    def test_num_thresholds_subsampling(self, rng):
        raw = rng.uniform(0, 1, size=200)
        truths = rng.integers(0, 2, size=200)
        truths[:2] = [0, 1]
        scores = list(zip(raw.tolist(), truths.tolist()))
        coarse = roc_sweep(scores, num_thresholds=10)
        assert len(coarse.points) <= 12
        assert coarse.auc == pytest.approx(roc_sweep(scores).auc, abs=0.05)


class TestFprAtTpr:
    def curve(self, scores):
        return roc_sweep(scores)

    def test_target_zero_is_zero(self, rng):
        scores = [(float(s), int(t)) for s, t in
                  zip(rng.uniform(0, 1, 20), rng.integers(0, 2, 20))]
        scores[0] = (0.5, 1)
        scores[1] = (0.4, 0)
        assert fpr_at_tpr(self.curve(scores), 0.0) == 0.0

    def test_perfect_separation_at_99(self):
        scores = [(3.0, 1), (2.5, 1), (0.2, 0), (0.1, 0)]
        assert fpr_at_tpr(self.curve(scores), 0.99) == 0.0

    def test_target_one_within_unit(self):
        scores = [(1.0, 1), (2.0, 0), (0.5, 0)]
        assert 0.0 <= fpr_at_tpr(self.curve(scores), 1.0) <= 1.0

    def test_interpolates_along_the_curve(self):
        # all-tied scores give the diagonal: fpr at tpr t is t itself
        curve = self.curve([(1.0, 1), (1.0, 1), (1.0, 0), (1.0, 0)])
        assert fpr_at_tpr(curve, 0.75) == pytest.approx(0.75)

    def test_reports_smallest_qualifying_fpr(self):
        # pos 4 and 2, neg 3: reaching tpr 0.75 forces the fpr-1.0 segment
        curve = self.curve([(4.0, 1), (2.0, 1), (3.0, 0)])
        assert fpr_at_tpr(curve, 0.75) == pytest.approx(1.0)
        assert fpr_at_tpr(curve, 0.5) == pytest.approx(0.0)

    def test_target_above_one_rejected(self):
        curve = self.curve([(1.0, 1), (0.5, 0)])
        with pytest.raises(ValueError):
            fpr_at_tpr(curve, 1.01)


class TestClipStatistic:
    def test_baseline_passes_through(self):
        cfg = PipelineConfig(mode="baseline")
        assert clip_statistic([4.2], cfg) == 4.2

    def test_vote_consistency_invariant(self, rng):
        # final label at any thresh equals (statistic >= thresh), by construction
        cfg = PipelineConfig(mode="vad1")
        for _ in range(100):
            t = int(rng.integers(1, 14))
            values = [float(v) for v in rng.uniform(0, 50, size=t)]
            stat = clip_statistic(values, cfg)
            for th in list(values) + [0.0, stat, stat + 1e-9, 100.0]:
                labels = [int(v >= th) for v in values]
                final = final_decision(vote_with_fallback(labels, cfg.vote))
                assert final == int(stat >= th), (values, th)

    def test_quorum_th_largest_in_window(self):
        cfg = PipelineConfig(mode="vad1")  # W=4, quorum 3
        values = [0.0, 10.0, 50.0, 20.0, 30.0, 0.0]
        # best window [10, 50, 20, 30]: third largest = 20
        assert clip_statistic(values, cfg) == 20.0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return generate_corpus(root, (3, 3, 3), snr_list=(0.0, 10.0), seed=6,
                           duration_s=2.0)


class TestRunEval:
    def test_one_report_per_config(self, corpus, tmp_path):
        configs = [PipelineConfig(mode=m, thresh=45.0)
                   for m in ("baseline", "vad1", "vad2")]
        reports = run_eval(corpus, configs, out_dir=tmp_path / "out")
        assert [r.mode for r in reports] == ["baseline", "vad1", "vad2"]
        for r in reports:
            assert set(r.per_class_accuracy) == {"clean_speech", "noisy_speech", "non_speech"}
            assert r.roc is not None and 0.0 <= r.roc.auc <= 1.0
            assert 0.99 in r.fpr_at_tpr
        for m in ("baseline", "vad1", "vad2"):
            assert (tmp_path / "out" / f"roc_{m}.csv").exists()
        table = (tmp_path / "out" / "accuracy.md").read_text()
        assert "Noisy Speech" in table and "vad2" in table

    def test_rerun_is_identical(self, corpus, tmp_path):
        cfg = [PipelineConfig(mode="vad1", thresh=45.0)]
        run_eval(corpus, cfg, out_dir=tmp_path / "a")
        run_eval(corpus, cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "roc_vad1.csv").read_bytes() == \
            (tmp_path / "b" / "roc_vad1.csv").read_bytes()
        assert (tmp_path / "a" / "accuracy.md").read_bytes() == \
            (tmp_path / "b" / "accuracy.md").read_bytes()

    def test_missing_file_recorded_not_fatal(self, corpus, tmp_path):
        from vadpipe.synth import Manifest, ManifestEntry
        broken = Manifest(corpus.entries + (ManifestEntry("ghost.wav", "non_speech", None, 1.0),),
                          corpus.root)
        reports = run_eval(broken, [PipelineConfig(mode="baseline", thresh=45.0)])
        assert len(reports[0].errors) == 1
        assert "ghost.wav" in reports[0].errors[0]
        assert reports[0].num_clips == len(corpus.entries)

    def test_each_clip_decoded_once_for_all_modes(self, corpus, monkeypatch):
        from vadpipe import evaluate
        calls = []
        real = evaluate.read_wav
        monkeypatch.setattr(evaluate, "read_wav", lambda path: calls.append(path) or real(path))
        configs = [PipelineConfig(mode=m, thresh=45.0) for m in ("baseline", "vad1", "vad2")]
        run_eval(corpus, configs)
        assert sorted(calls) == sorted(str(corpus.resolve(e)) for e in corpus.entries)

    def test_any_worker_exception_is_a_clip_error(self, corpus, monkeypatch):
        from vadpipe import evaluate
        real = evaluate.run_pipeline

        def flaky(buf, cfg):
            if cfg.mode == "vad1":
                raise RuntimeError("scorer exploded")
            return real(buf, cfg)

        monkeypatch.setattr(evaluate, "run_pipeline", flaky)
        configs = [PipelineConfig(mode=m, thresh=45.0) for m in ("baseline", "vad1")]
        baseline, vad1 = run_eval(corpus, configs)
        assert baseline.errors == () and baseline.num_clips == len(corpus.entries)
        assert vad1.num_clips == 0
        assert all("RuntimeError: scorer exploded" in e for e in vad1.errors)

    def test_empty_manifest_rejected(self, tmp_path):
        from vadpipe.synth import Manifest
        with pytest.raises(ValueError):
            run_eval(Manifest((), tmp_path), [PipelineConfig()])
