"""IIM learning and imputation phases (Algorithms 1 and 2), including
the paper's worked Examples 2 and 3 and agreement with a reference built
on the Catalyst kNN join."""
import numpy as np
import pandas as pd
import pytest

from repro.core import iim, linalg
from repro.core.iim import combine_candidates
from repro.core.nn import knn_join


def _df(spark, rows, cols):
    pdf = pd.DataFrame(rows, columns=cols)
    pdf["row_id"] = pdf["row_id"].astype(np.int64)
    return spark.createDataFrame(pdf)


@pytest.fixture(scope="module")
def fig1_r(spark):
    """The four left-street tuples of Figure 1 (Example 6 coordinates)."""
    rows = [(1, 0.0, 5.8), (2, 0.8, 4.6), (3, 1.9, 3.8), (4, 2.9, 3.2)]
    return _df(spark, rows, ["row_id", "A1", "A2"])


@pytest.fixture(scope="module")
def rand_r(spark):
    rng = np.random.default_rng(3)
    pdf = pd.DataFrame(
        {
            "row_id": np.arange(40, dtype=np.int64),
            "A1": rng.normal(size=40),
            "A2": rng.normal(size=40),
            "A3": rng.normal(size=40),
        }
    )
    return pdf, spark.createDataFrame(pdf)


class TestCombineCandidates:
    def test_example3_weights(self):
        """Candidates 1.19, 1.21, 1.19 -> weights 50/125, 25/125, 50/125
        -> imputation 1.194 (paper Example 3)."""
        out = combine_candidates(np.array([[1.19, 1.21, 1.19]]))
        np.testing.assert_allclose(out, [1.194], atol=1e-9)

    def test_all_equal_falls_back_to_uniform(self):
        out = combine_candidates(np.array([[2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(out, [2.0])

    def test_single_candidate(self):
        np.testing.assert_allclose(combine_candidates(np.array([[5.0]])), [5.0])

    def test_uniform_weighting_is_mean(self):
        C = np.array([[1.0, 2.0, 6.0]])
        np.testing.assert_allclose(
            combine_candidates(C, weighting="uniform"), [3.0]
        )

    def test_outlier_gets_low_weight(self):
        """The vote weighting pulls the result toward agreeing candidates."""
        C = np.array([[1.0, 1.01, 50.0]])
        vote = combine_candidates(C)[0]
        mean = C.mean()
        assert abs(vote - 1.0) < abs(mean - 1.0)

    def test_batch_rows_independent(self):
        C = np.array([[1.19, 1.21, 1.19], [2.0, 2.0, 2.0]])
        out = combine_candidates(C)
        np.testing.assert_allclose(out, [1.194, 2.0], atol=1e-9)

    def test_weights_formula_by_hand(self):
        C = np.array([[0.0, 1.0, 3.0]])
        c = np.array([1 + 3.0, 1 + 2.0, 3 + 2.0])  # pairwise |ci - cj| sums
        w = (1 / c) / (1 / c).sum()
        np.testing.assert_allclose(combine_candidates(C), [(C[0] * w).sum()])

    def test_unknown_weighting_raises(self):
        with pytest.raises(ValueError):
            combine_candidates(np.array([[1.0, 2.0]]), weighting="median")


class TestLearning:
    def test_example2_parameters(self, spark, fig1_r):
        """l=4 over t1..t4: every tuple's neighbors are all four tuples,
        so every phi equals (5.56, -0.87) (paper Example 2 / Figure 1
        left street)."""
        models = iim.learn_models(spark, fig1_r, ["A1"], "A2", 4)
        got = models.toPandas().sort_values("row_id")
        assert len(got) == 4
        for phi in got["phi"]:
            np.testing.assert_allclose(phi, [5.56, -0.87], atol=0.005)

    def test_l1_constant_models(self, spark, fig1_r):
        """Every tuple's l=1 model is its own A_x, also when another
        tuple with a lower row_id has the same F-value (t2 moved onto t1)."""
        y = {1: 5.8, 2: 4.6, 3: 3.8, 4: 3.2}
        rows = [(1, 0.0, 5.8), (2, 0.0, 4.6), (3, 1.9, 3.8), (4, 2.9, 3.2)]
        dup = _df(spark, rows, ["row_id", "A1", "A2"])
        for r in (fig1_r, dup):
            got = iim.learn_models(spark, r, ["A1"], "A2", 1).toPandas()
            assert sorted(got["row_id"]) == [1, 2, 3, 4]
            for _, row in got.iterrows():
                np.testing.assert_allclose(row["phi"], [y[row["row_id"]], 0.0])

    def test_example6_l3_for_t1(self, spark, fig1_r):
        """t1's 3 nearest neighbors are t1,t2,t3 -> phi = (5.66, -1.03)."""
        models = iim.learn_models(spark, fig1_r, ["A1"], "A2", 3)
        got = models.toPandas().set_index("row_id")
        np.testing.assert_allclose(got.loc[1, "phi"], [5.66, -1.03], atol=0.005)


def _reference_neighbors(queries, r, F, k):
    """Each query id's k nearest row ids of r, nearest first, from the
    Catalyst kNN join (the path the DuckDB oracle checks)."""
    nn = knn_join(queries, r, F, k).toPandas()
    return {q: g.sort_values("rank")["n_id"].to_numpy() for q, g in nn.groupby("q_id")}


class TestEngineAgreement:
    """learn_models and impute against a reference assembled from
    nn.knn_join, linalg.ridge_fit and iim.combine_candidates."""

    @pytest.mark.parametrize("l", [1, 3, 10])
    def test_learning_engines_agree(self, spark, rand_r, l):
        pdf, df = rand_r
        F = ["A1", "A2"]
        rows = pdf.set_index("row_id")
        ref = {
            q: linalg.single_neighbor_phi(rows.loc[n[0], "A3"], len(F) + 1)
            if l == 1
            else linalg.ridge_fit(rows.loc[n, F].to_numpy(), rows.loc[n, "A3"].to_numpy())
            for q, n in _reference_neighbors(df, df, F, l).items()
        }
        b = (
            iim.learn_models(spark, df, F, "A3", l)
            .toPandas().sort_values("row_id").reset_index(drop=True)
        )
        assert sorted(ref) == b["row_id"].tolist()
        np.testing.assert_allclose(
            np.array([ref[i] for i in b["row_id"]]), np.array(b["phi"].tolist()), atol=1e-7
        )

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_imputation_engines_agree(self, spark, rand_r, k):
        pdf, df = rand_r
        F = ["A1", "A2"]
        models = iim.learn_models(spark, df, F, "A3", 5)
        rng = np.random.default_rng(9)
        q_pdf = pd.DataFrame(
            {
                "row_id": np.arange(100, 106, dtype=np.int64),
                "A1": rng.normal(size=6),
                "A2": rng.normal(size=6),
            }
        )
        q = spark.createDataFrame(q_pdf)
        phi = models.toPandas().set_index("row_id")["phi"]
        x = q_pdf.set_index("row_id")[F]
        a = [
            combine_candidates(
                np.array([[p[0] + np.dot(p[1:], x.loc[qid]) for p in phi.loc[n]]])
            )[0]
            for qid, n in sorted(_reference_neighbors(q, df, F, k).items())
        ]
        b = (
            iim.impute(spark, df, q, models, F, "A3", k)
            .toPandas().sort_values("row_id").reset_index(drop=True)
        )
        np.testing.assert_allclose(np.array(a), b["imputed"].to_numpy(), atol=1e-7)


class TestEndToEnd:
    def test_fig1_iim_imputation_close_to_truth(self, spark):
        """Two-street Figure-1-style data: IIM recovers t_x[A2] ~ 1.8
        while kNN-style averaging of the neighbors' values cannot."""
        # left street: descending line; right street: ascending line
        rows = [
            (1, 0.0, 5.8), (2, 0.8, 4.6), (3, 1.9, 3.8), (4, 2.9, 3.2),
            (5, 4.5, 0.64), (6, 5.5, 1.75), (7, 6.5, 2.86), (8, 7.5, 3.97),
        ]
        r = _df(spark, rows, ["row_id", "A1", "A2"])
        q = _df(spark, [(99, 5.0)], ["row_id", "A1"])
        out = iim.iim_impute(spark, r, q, ["A1"], "A2", k=3, l=4).toPandas()
        # right-street regression predicts 0.64 + 1.11*(5-4.5) ~ 1.19-1.21
        assert abs(out["imputed"].iloc[0] - 1.3) < 0.4

    def test_iim_beats_knn_on_heterogeneous(self, spark):
        """The paper's core claim at micro scale: on two-regime data IIM's
        individual models beat direct kNN value averaging."""
        rng = np.random.default_rng(0)
        n = 120
        c = rng.integers(0, 2, n)
        x = rng.uniform(0, 4, n) + 5 * c
        y = np.where(c == 0, 5 - x, -9 + 1.2 * x) + rng.normal(0, 0.05, n)
        pdf = pd.DataFrame({"row_id": np.arange(n, dtype=np.int64), "A1": x, "A2": y})
        mask = pdf.sample(20, random_state=1).index
        truth = pdf.loc[mask]
        r = spark.createDataFrame(pdf.drop(mask))
        q = spark.createDataFrame(truth[["row_id", "A1"]])
        got = iim.iim_impute(spark, r, q, ["A1"], "A2", k=5, l=8).toPandas().set_index("row_id")
        iim_rms = np.sqrt(
            ((got.loc[truth["row_id"], "imputed"].to_numpy() - truth["A2"].to_numpy()) ** 2).mean()
        )
        from repro.baselines.simple import knn_impute

        knn = knn_impute(spark, r, q, ["A1"], "A2", k=5).toPandas().set_index("row_id")
        knn_rms = np.sqrt(
            ((knn.loc[truth["row_id"], "imputed"].to_numpy() - truth["A2"].to_numpy()) ** 2).mean()
        )
        assert iim_rms < knn_rms

    def test_models_must_cover_r(self, spark, rand_r):
        pdf, df = rand_r
        F = ["A1", "A2"]
        models = iim.learn_models(spark, df.limit(10), F, "A3", 3)
        q = spark.createDataFrame(
            pd.DataFrame({"row_id": [500], "A1": [0.0], "A2": [0.0]})
        )
        with pytest.raises(Exception):
            iim.impute(spark, df, q, models, F, "A3", 3).collect()


@pytest.fixture(scope="module")
def tied_r(spark):
    """Grid-valued relation with duplicated tuples, and queries that
    repeat each other and points of r, so the k-th neighbor is often one
    of several tuples at the same distance. More queries than one
    driver-side kNN block holds."""
    rng = np.random.default_rng(21)
    n = 60
    X = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    pdf = pd.DataFrame({"row_id": np.arange(n, dtype=np.int64), "A1": X[:, 0], "A2": X[:, 1]})
    pdf["A3"] = 2 * pdf["A1"] - pdf["A2"] + rng.normal(0, 0.3, n)
    Q = np.vstack(
        [X[[0, 5, 5, 9]], [[1.5, 1.5], [1.5, 1.5], [0.5, 2.0]], X[rng.integers(0, n, 33)]]
    )
    q = pd.DataFrame(
        {"row_id": np.arange(500, 500 + len(Q), dtype=np.int64), "A1": Q[:, 0], "A2": Q[:, 1]}
    )
    return pdf, spark.createDataFrame(pdf), spark.createDataFrame(q)


class TestDemandDrivenLearning:
    F = ["A1", "A2"]

    @pytest.mark.parametrize("kw", [{"h": 3}, {"l": 4}], ids=["adaptive", "fixed"])
    def test_equals_learning_every_model(self, spark, tied_r, kw):
        """iim_impute learns only the consulted models, yet imputes
        bit-for-bit what learning all of them and imputing gives."""
        from repro.core.adaptive import adaptive_learn

        pdf, r, q = tied_r
        got = iim.iim_impute(spark, r, q, self.F, "A3", k=5, **kw).toPandas()
        if "l" in kw:
            models = iim.learn_models(spark, r, self.F, "A3", kw["l"])
        else:
            models = adaptive_learn(spark, r, self.F, "A3", k=5, **kw)
        want = iim.impute(spark, r, q, models, self.F, "A3", 5).toPandas()
        got, want = (d.sort_values("row_id").reset_index(drop=True) for d in (got, want))
        assert got["row_id"].tolist() == want["row_id"].tolist()
        assert np.array_equal(got["imputed"].to_numpy(), want["imputed"].to_numpy())

    def _neighbors(self, pdf, q, k):
        """Row ids of each query's k nearest tuples of r, nearest first."""
        X = pdf[self.F].to_numpy(np.float64)
        Q = q.select(*self.F).toPandas().to_numpy(np.float64)
        ids = pdf["row_id"].to_numpy()
        return ids[iim.knn_numpy(Q, X, k, r_ids=ids)[0]]

    def test_missing_consulted_model_raises(self, spark, tied_r):
        pdf, r, q = tied_r
        models = iim.learn_models(spark, r, self.F, "A3", 4)
        q1 = q.where("row_id = 504")  # (1.5, 1.5): four grid points tie
        dropped = int(self._neighbors(pdf, q1, 3)[0, 1])
        partial = models.where(f"row_id != {dropped}")
        msg = f"neighbor row_id {dropped} of incomplete tuple row_id 504 has no model"
        with pytest.raises(Exception, match=msg):
            iim.impute(spark, r, q1, partial, self.F, "A3", 3).collect()

    def test_partial_models_covering_the_neighbors(self, spark, tied_r):
        pdf, r, q = tied_r
        models = iim.learn_models(spark, r, self.F, "A3", 4)
        full = iim.impute(spark, r, q, models, self.F, "A3", 3).toPandas()
        consulted = np.unique(self._neighbors(pdf, q, 3))
        assert len(consulted) < len(pdf)
        keep = ",".join(str(i) for i in consulted)
        part = iim.impute(
            spark, r, q, models.where(f"row_id IN ({keep})"), self.F, "A3", 3
        ).toPandas()
        full, part = (d.sort_values("row_id").reset_index(drop=True) for d in (full, part))
        assert np.array_equal(full["imputed"].to_numpy(), part["imputed"].to_numpy())

    def test_model_outside_r_raises(self, spark, tied_r):
        pdf, r, q = tied_r
        models = iim.learn_models(spark, r, self.F, "A3", 4)
        stray = spark.createDataFrame(
            pd.DataFrame({"row_id": np.array([999], dtype=np.int64), "phi": [[0.0, 1.0, 1.0]]}),
            iim.MODEL_SCHEMA,
        )
        with pytest.raises(ValueError, match="model row_id 999 is not in the complete relation r"):
            iim.impute(spark, r, q, models.unionByName(stray), self.F, "A3", 3)


class TestInputErrors:
    F = ["A1", "A2"]

    def _r(self, spark, col=None, row=None, val=None):
        pdf = pd.DataFrame(
            {
                "row_id": np.arange(8, dtype=np.int64),
                "A1": np.arange(8, dtype=np.float64),
                "A2": np.arange(8, dtype=np.float64) ** 2,
                "A3": np.arange(8, dtype=np.float64) * 3,
            }
        )
        if col is not None:
            pdf.loc[row, col] = val
        return spark.createDataFrame(pdf)

    def _q(self, spark, a2=1.0):
        return spark.createDataFrame(
            pd.DataFrame({"row_id": np.array([500], dtype=np.int64), "A1": [0.5], "A2": [a2]})
        )

    def test_duplicate_row_id_in_r(self, spark):
        r = self._r(spark, "row_id", 5, 2)
        with pytest.raises(ValueError, match="duplicate row_id 2 in the complete relation r"):
            iim.iim_impute(spark, r, self._q(spark), self.F, "A3", k=3)

    @pytest.mark.parametrize("col", ["A2", "A3"])
    def test_nan_in_r(self, spark, col):
        r = self._r(spark, col, 6, np.nan)
        with pytest.raises(ValueError, match=f"NaN or infinite value in column '{col}' \\(row_id 6\\)"):
            iim.iim_impute(spark, r, self._q(spark), self.F, "A3", k=3)

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_nan_in_query(self, spark, adaptive):
        kw = {} if adaptive else {"l": 3}
        with pytest.raises(ValueError, match="incomplete relation has a NaN or infinite value in column 'A2' \\(row_id 500\\)"):
            iim.iim_impute(spark, self._r(spark), self._q(spark, np.nan), self.F, "A3", k=3, **kw).collect()

    @pytest.mark.parametrize("l", [0, 9])
    def test_l_outside_r(self, spark, l):
        msg = f"l={l} is outside 1..8 for the complete relation r of 8 tuples"
        with pytest.raises(ValueError, match=msg):
            iim.learn_models(spark, self._r(spark), self.F, "A3", l)
        with pytest.raises(ValueError, match=msg):
            iim.iim_impute(spark, self._r(spark), self._q(spark), self.F, "A3", k=3, l=l)

    @pytest.mark.parametrize("k", [0, 9])
    def test_impute_k_outside_r(self, spark, k):
        models = iim.learn_models(spark, self._r(spark), self.F, "A3", 3)
        msg = f"k={k} is outside 1..8 for the complete relation r of 8 tuples"
        with pytest.raises(ValueError, match=msg):
            iim.impute(spark, self._r(spark), self._q(spark), models, self.F, "A3", k)
        with pytest.raises(ValueError, match=msg):
            iim.iim_impute(spark, self._r(spark), self._q(spark), self.F, "A3", k=k, l=3)

    @pytest.mark.parametrize("k", [0, 8])
    def test_adaptive_k_outside_r_minus_self(self, spark, k):
        """The validation kNN excludes the tuple itself: k <= |r| - 1."""
        from repro.core.adaptive import adaptive_learn

        msg = f"k={k} is outside 1..7 for the complete relation r of 8 tuples"
        with pytest.raises(ValueError, match=msg):
            adaptive_learn(spark, self._r(spark), self.F, "A3", k=k)
