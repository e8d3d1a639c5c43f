"""Tests for the workload registry and generation contract."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.experiments.scenarios import SCENARIO_SPECS
from repro.scenario import ScenarioSpec, ScenarioWorkload, mix
from repro.trace.model import MemTrace
from repro.trace.synth import from_arrays
from repro.workloads import (
    DEFAULT_SCALE,
    all_workloads,
    get_workload,
    table3_rows,
    workload_names,
)
from repro.workloads.base import SyntheticWorkload
from repro.workloads.spec95fp import Applu, Hydro2d, Su2cor95, Swim95


class TestRegistry:
    def test_fourteen_benchmarks(self):
        assert len(workload_names()) == 14

    def test_suite_split_matches_paper(self):
        assert len(workload_names("SPEC92")) == 7
        assert len(workload_names("SPEC95")) == 7

    def test_spec92_names(self):
        assert workload_names("SPEC92") == [
            "Compress", "Dnasa2", "Eqntott", "Espresso",
            "Su2cor", "Swm", "Tomcatv",
        ]

    def test_unknown_suite_rejected(self):
        with pytest.raises(WorkloadError):
            workload_names("SPEC2000")

    def test_lookup_case_insensitive(self):
        assert get_workload("compress").name == "Compress"

    def test_unknown_name_lists_known(self):
        with pytest.raises(WorkloadError, match="compress"):
            get_workload("gcc")

    def test_all_workloads_instantiates_at_scale(self):
        for workload in all_workloads(scale=0.125):
            assert workload.scale == 0.125


class TestGenerationContract:
    def test_deterministic_for_seed(self):
        a = get_workload("Li").generate(seed=9)
        b = get_workload("Li").generate(seed=9)
        assert a == b

    def test_seed_changes_trace(self):
        a = get_workload("Compress").generate(seed=1, max_refs=5000)
        b = get_workload("Compress").generate(seed=2, max_refs=5000)
        assert a != b

    def test_max_refs_truncates(self):
        trace = get_workload("Swm").generate(seed=0, max_refs=1000)
        assert len(trace) == 1000

    def test_invalid_max_refs(self):
        with pytest.raises(WorkloadError):
            get_workload("Swm").generate(max_refs=0)

    def test_invalid_scale(self):
        with pytest.raises(WorkloadError):
            get_workload("Swm", scale=0.0)

    def test_trace_carries_benchmark_name(self):
        assert get_workload("Tomcatv").generate(max_refs=100).name == "Tomcatv"

    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload_generates(self, name):
        workload = get_workload(name, scale=1 / 16)
        trace = workload.generate(seed=0, max_refs=20_000)
        assert len(trace) > 0
        assert 0.0 < trace.write_count / len(trace) < 0.6


class TestFootprints:
    @pytest.mark.parametrize("name", workload_names("SPEC92"))
    def test_footprint_tracks_designed_dataset(self, name):
        """Generated footprints stay within 2x of the scaled Table 3 size."""
        workload = get_workload(name)
        trace = workload.generate(seed=0)
        designed = workload.dataset_bytes()
        assert designed / 2.2 <= trace.footprint_bytes <= designed * 1.6

    def test_dataset_bytes_scales_linearly(self):
        quarter = get_workload("Tomcatv", scale=0.25).dataset_bytes()
        eighth = get_workload("Tomcatv", scale=0.125).dataset_bytes()
        assert quarter == pytest.approx(2 * eighth, rel=0.01)


class TestTable3Metadata:
    def test_rows_cover_every_benchmark(self):
        rows = table3_rows()
        assert {row["benchmark"] for row in rows} == set(workload_names())

    def test_paper_values_present(self):
        rows = {row["benchmark"]: row for row in table3_rows()}
        assert rows["Compress"]["paper_refs_millions"] == 21.9
        assert rows["Tomcatv"]["paper_dataset_mb"] == 3.67
        assert rows["Perl"]["input"] == "jumble.pl"


class TestLocalityStructure:
    """Each model must exhibit the locality the paper attributes to it."""

    def test_compress_probes_lack_spatial_locality(self):
        from repro.trace.stats import sequential_fraction

        trace = get_workload("Compress").generate(seed=0, max_refs=50_000)
        assert sequential_fraction(trace) < 0.6

    def test_swm_is_streaming(self):
        from repro.trace.stats import reuse_fraction

        trace = get_workload("Swm").generate(seed=0)
        # every word revisited by later passes: high reuse overall
        assert reuse_fraction(trace) > 0.5

    def test_espresso_has_tiny_working_set(self):
        trace = get_workload("Espresso").generate(seed=0)
        assert trace.footprint_bytes < 16 * 1024

    def test_li_is_cache_bound(self):
        trace = get_workload("Li").generate(seed=0)
        assert trace.footprint_bytes < 64 * 1024

    def test_tomcatv_has_largest_spec92_footprint(self):
        footprints = {
            name: get_workload(name).generate(seed=0).footprint_bytes
            for name in workload_names("SPEC92")
        }
        assert max(footprints, key=footprints.get) == "Tomcatv"


class TestBaseClassContract:
    def test_build_must_not_be_empty(self):
        class Empty(SyntheticWorkload):
            name = "Empty"

            def _build(self, rng):
                return from_arrays(
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
                )

        with pytest.raises(WorkloadError):
            Empty(scale=DEFAULT_SCALE).generate()

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bad_budget_rejected_before_building(self, bad):
        calls = []

        class Spy(SyntheticWorkload):
            name = "Spy"

            def _build(self, rng):
                calls.append(rng)
                return from_arrays(
                    np.zeros(4, dtype=np.int64), np.zeros(4, dtype=bool)
                )

        with pytest.raises(WorkloadError, match="positive"):
            Spy().generate(max_refs=bad)
        assert calls == []


class TestLookupSuggestions:
    def test_close_miss_suggests_the_intended_name(self):
        with pytest.raises(WorkloadError, match="did you mean Compress"):
            get_workload("compres")

    def test_suggestion_offers_alternatives(self):
        # "su2cor9" is near both Su2cor and Su2cor95.
        with pytest.raises(WorkloadError, match="did you mean Su2cor"):
            get_workload("su2cor9")

    def test_distant_miss_just_lists_known(self):
        with pytest.raises(WorkloadError) as excinfo:
            get_workload("zzzzzz")
        assert "did you mean" not in str(excinfo.value)
        assert "known:" in str(excinfo.value)


class TestScaleValidation:
    @pytest.mark.parametrize("bad", [0, -1, 0.0, -0.5])
    def test_non_positive_scale_rejected(self, bad):
        with pytest.raises(WorkloadError, match="positive"):
            get_workload("Compress", scale=bad)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_scale_rejected(self, bad):
        # NaN passes every comparison check; isfinite is the regression
        # guard (a NaN scale used to slip through and poison footprints).
        with pytest.raises(WorkloadError, match="finite"):
            get_workload("Compress", scale=bad)

    @pytest.mark.parametrize("bad", ["0.25", None, True])
    def test_non_number_scale_rejected(self, bad):
        with pytest.raises(WorkloadError, match="number"):
            get_workload("Compress", scale=bad)


def _digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


#: Reference budgets of :data:`TRACE_DIGESTS`' columns; ``None`` is the
#: whole trace.
TRACE_BUDGETS = (3_000, 20_000, 40_000, None)

#: SHA-256 of ``addresses.tobytes() + is_write.tobytes()`` for
#: ``get_workload(name).generate(seed=seed, max_refs=budget)`` at the
#: default scale. Any change to a model, a synth primitive or the
#: interleave kernel that moves one trace byte fails here.
TRACE_DIGESTS = {
    ("Compress", 0): (
        "230fe558b131f1bf608c7c4e51fd191263d610c842679fa2491e4ad9b9deae4a",
        "8b7860209584b6a92ef0fbdef4c6ae07a26b94a5ff6809df3d41da452c210295",
        "2ba012ce83fc82aa1b1984c6d009e72b20e073135803ac94de7db3ea0e47d986",
        "0056cd5a02f418542aba33c728a23fb8ea93263a69c0ecdcfca9eee086c5128c",
    ),
    ("Compress", 11): (
        "9c0dedbfb8ff6a34d4a1e6b87751974a52e1d8b14fea94b599871cea45c4b075",
        "5832d9eee5fee99f144a5a1b879aacb94e3c0c1496368c6b5bede4023243c6cc",
        "d8abd368a2f11aa3862034232788e98cb2239804a0d0a4d414ce83e249c9ba99",
        "456392debe0e46ff5939c3670a3ff739e72307f9d3b464957155d168c370af28",
    ),
    ("Dnasa2", 0): (
        "589041a97e7fbeda58f08f9b8c30fcede9009d486f26be4eb17835fdc607d748",
        "182f6a7221b7404694e516d032b8d8a2d8516cf1119e0a09dee1b1e2323067c7",
        "3b8d51f469dad1fccdd98fac9ffcdd1faba9193ad38c6b41d22a0ad7f80d1034",
        "7a17c042692db403176f994311ee0001177fc1db0a740ec09c5ceef2b3187032",
    ),
    ("Dnasa2", 11): (
        "589041a97e7fbeda58f08f9b8c30fcede9009d486f26be4eb17835fdc607d748",
        "182f6a7221b7404694e516d032b8d8a2d8516cf1119e0a09dee1b1e2323067c7",
        "3b8d51f469dad1fccdd98fac9ffcdd1faba9193ad38c6b41d22a0ad7f80d1034",
        "7a17c042692db403176f994311ee0001177fc1db0a740ec09c5ceef2b3187032",
    ),
    ("Eqntott", 0): (
        "31ab7bff54f9117852a824d784cd475140d76cba63b967e17d510bd78ee5ff22",
        "f4ae481e331c743ca83f61c341f7afa02bc97b64db4d0905171734e91f4b2ac4",
        "00f2314ec6edab9645fbf29afa33019a5aec92c38b15f6db10e465cc035ae9b6",
        "434feeb539ad5b2b40a17e2a3045e02fab1a2d716e6d179e1c487496b2489098",
    ),
    ("Eqntott", 11): (
        "23c0a0b03e30e5c78b13093b340ed517d9f74b6b77ef87952cc2e41886ef2ad8",
        "81af285a4e97f3904c800fa54cb68f731f82b76b22ded449aa97dc6175788f9f",
        "c2b2e2ff0edf0cda4de927ea690f25a36c64b1277477dccf94759bec49ed286e",
        "c2caf8ec7bdad6513d4cf3af4c4ecc4a5ed7691b51f69ec1e28dba95f3f23735",
    ),
    ("Espresso", 0): (
        "8b6e48a9f40d351eceb7c6e065f848b95d952acb0edc9150542f0fdb1d1aeeac",
        "856e7866b0cbbe40806e59238a028a6709bfeef556fed9c321c45d9b953bd18d",
        "c335df43f5a87e26388fb94cc4f6c4d82af0bea8750b8d1072f7917a70c3cd36",
        "fd4f4e40c0959281631e7b248027ed92aa13744979968bf827c42727c9326cbe",
    ),
    ("Espresso", 11): (
        "aea79f64817e9cadf23b74e0298839821c8422926a15fe9ff2f435ffbba6d10f",
        "32f23f9e61e347b358293775fc864d007d1ad40546e834b90bb8eba131d5ce9c",
        "c0c409d699aee7ae76cd0b5a8152b02e2ac877c4c67ae26931cf03ddaf6dc92c",
        "4314a97fc61eb3c763e17e83bbe7185c6cdd62aafdb2120b6ec553c5a22da4da",
    ),
    ("Su2cor", 0): (
        "9b3769a37bea083f918921b272789f3d744cdb2761e7e183a501c366c1bcf2d3",
        "ad6f397b8f9e34f3e70b0440c94c3ce112173c9afc1ae62cdd3002f9d01484b1",
        "2856c74311714643229b01892837b995db32e17028c01c9b097fe52fb895349f",
        "1c4adfc6a40634d3ecd3973488c43b54328c7c721774b558ae66e18c9edba657",
    ),
    ("Su2cor", 11): (
        "9b3769a37bea083f918921b272789f3d744cdb2761e7e183a501c366c1bcf2d3",
        "ad6f397b8f9e34f3e70b0440c94c3ce112173c9afc1ae62cdd3002f9d01484b1",
        "2856c74311714643229b01892837b995db32e17028c01c9b097fe52fb895349f",
        "1c4adfc6a40634d3ecd3973488c43b54328c7c721774b558ae66e18c9edba657",
    ),
    ("Swm", 0): (
        "57057b102a28f7f6c12999ebe063a9860f0e7c459edf951fa9ff991e1640c4b6",
        "23552f1141674e0f7987725d5be8afc753a49e1996b905f6509b229602e2e27e",
        "77c5ffe135b6f2494363c3aae18324e5893ec66e591fcfd8d8acbde36afc1b86",
        "052b4b863b989d1adfd880e85043d40a7b27cf2ff1c39017bcce62ec360cc79c",
    ),
    ("Swm", 11): (
        "4908bc88055620dadc32cc6a3ed7d8c32c875cd19c3cbdbc76a9beac47a6d98c",
        "9b3c5c2c1e567e590a7a0009e75756aa547cad14752e1ac3320787e8f63303b8",
        "5051481de2a248b6e5bf2c6f5c5fde7e55f765fd36d8a6decd188dc14dd4b1d9",
        "55f33c2d87cf41a5b2d8a129d0ba08d3c70ad61f256dedd70d2170c22fa82f77",
    ),
    ("Tomcatv", 0): (
        "68b4b54e0976a80d39c4d5002d7e9da62a73442952682733f35540ce2c82c036",
        "7a279a966e091911a055363f077ba35c56ac065a3589369fc377d78ae1cfcc4c",
        "df9f23130b80e136ce71e7ebf1d8b8965a660d8e7e0665fbbfb209120aef6afe",
        "7d807155d45ff3d6c606733eeb83ef4bda10eb3c518505b92aeeaac540bcee16",
    ),
    ("Tomcatv", 11): (
        "68b4b54e0976a80d39c4d5002d7e9da62a73442952682733f35540ce2c82c036",
        "7a279a966e091911a055363f077ba35c56ac065a3589369fc377d78ae1cfcc4c",
        "df9f23130b80e136ce71e7ebf1d8b8965a660d8e7e0665fbbfb209120aef6afe",
        "7d807155d45ff3d6c606733eeb83ef4bda10eb3c518505b92aeeaac540bcee16",
    ),
    ("Applu", 0): (
        "12bbd3610b77542f6e22e550e01e66e731dcec10c2ac7415dabf84d784d01ca8",
        "48b5d0ad629d1ec02bd444a18decb5ccae4cdfaa92afdb2ec8054a38dd2c3fed",
        "d89cc808f3cc3e1d2d25e120dfeb84d3fde7bac4274b43c73a3363ee5bd317dd",
        "12f61384995a47ef593f97f7c1bd8f0e1a625aa442aef4d4fe16b1583739f973",
    ),
    ("Applu", 11): (
        "12bbd3610b77542f6e22e550e01e66e731dcec10c2ac7415dabf84d784d01ca8",
        "48b5d0ad629d1ec02bd444a18decb5ccae4cdfaa92afdb2ec8054a38dd2c3fed",
        "d89cc808f3cc3e1d2d25e120dfeb84d3fde7bac4274b43c73a3363ee5bd317dd",
        "12f61384995a47ef593f97f7c1bd8f0e1a625aa442aef4d4fe16b1583739f973",
    ),
    ("Hydro2D", 0): (
        "4a5dd1ab87adbaea54069a0b2188e336e6fe2fe79b4691097738513494c6194f",
        "b115e53b8031cc5cfe697f117fd5e484f9823d98798d3166a6dcc8e16e907156",
        "ecd4db734791590b86892cf6981bfd065c0048457d7680d4a7799a1481e7700d",
        "39989403d67e6c79e780a6bfe7ec5c2d4f644e131eb317122b4cc799a56a7b17",
    ),
    ("Hydro2D", 11): (
        "4a5dd1ab87adbaea54069a0b2188e336e6fe2fe79b4691097738513494c6194f",
        "b115e53b8031cc5cfe697f117fd5e484f9823d98798d3166a6dcc8e16e907156",
        "ecd4db734791590b86892cf6981bfd065c0048457d7680d4a7799a1481e7700d",
        "39989403d67e6c79e780a6bfe7ec5c2d4f644e131eb317122b4cc799a56a7b17",
    ),
    ("Li", 0): (
        "124071adaf81ac733cebee385d91b658afb7f79217b7a6a63a8d71af7468dd05",
        "3b19df1d87b79b739babde9eb9a70bf221bef7490979f506b4c9481376416f31",
        "7c07edb53dd63cfcc46284f62c27fc5dbcafd46edf58cc38d808dab58e4b8f91",
        "1c312f4e8a8d750d3d5aca58c390939330428c8c3dd393dd7675f073a46c8e45",
    ),
    ("Li", 11): (
        "9a1b7e5fb32994af9627ebd2d4ea0148b41c5bfdfefc48c872ed72631ac3f529",
        "9729ca83a873497c5a72610962cd2605a089fd39213e1d0b50d721c4f7b432bd",
        "34f6f261d682da2d0bd85c4524a745d96fe02b04b1a9394b04fd5bf1c38c38b8",
        "bffc56e673d9762d0ae38e83a7e97526621fe2940c892002d726dfd5a5f6b2b8",
    ),
    ("Perl", 0): (
        "4ade6116d11a9c723c9c11335fb4ff3bc7ad567175da226cfb5e5d119cad0d90",
        "2f92f22ebcafbcb898fc63d909e7ef2c1f8a551db01cb5ee4ca0daaa26dcb67f",
        "40d05b1c3a4fdcda26ae2a2a1bec07a86e760c12dd0676daa633bb56472a963a",
        "e4fe80d9ca39e6253cc25de403422e3d64399604092377785d8ec472488845aa",
    ),
    ("Perl", 11): (
        "4eeff5f42c445d79df95e1f80fa5ec4a4bcf657423cbcec73721ed8b4e618d9e",
        "35cb5a437711bce79132e4eb93a58602af565cdce6f4b4fdece2ae911ca4d68f",
        "5a6ee5335586b5c812ca72c6ff3f6e89aced1c9cf92debe95eed3b7f960a3a76",
        "8be344fc81b9b6e40f5bfe41a17c4c4e5bbada5f64621db556abda6ac0c93fad",
    ),
    ("Su2cor95", 0): (
        "dc5cf31a6856f625d9e3dfec3c963fb8065d97e2fa29a10d07391ec00fd447d7",
        "916c65a72610addad263a49ed37e6213b60f55253dc9d19be3b6db95861c1435",
        "bebdb29a257b8ba2122a5f79ffdb960d7e1ab1bb474409ab877934c8689073c4",
        "7d05708f0a3def493bdbc0c20c99dee368f1cbf7535b4e4afea374aa76ac0de3",
    ),
    ("Su2cor95", 11): (
        "dc5cf31a6856f625d9e3dfec3c963fb8065d97e2fa29a10d07391ec00fd447d7",
        "916c65a72610addad263a49ed37e6213b60f55253dc9d19be3b6db95861c1435",
        "bebdb29a257b8ba2122a5f79ffdb960d7e1ab1bb474409ab877934c8689073c4",
        "7d05708f0a3def493bdbc0c20c99dee368f1cbf7535b4e4afea374aa76ac0de3",
    ),
    ("Swim95", 0): (
        "0140ea1f978f170432ccaed97c4d35598db6d839503d8062268cb1e30d86c548",
        "f39a91e3ad9fc05d8ab4164c0c283bdfc3cdbe02f1792a3c706f49d562cb69b1",
        "e5361fe3c0445e977da02c47c4f88fb6c5af4516dca8ba2f321038bd3ae910ae",
        "99c2deca4a24138f9cb6cebdcce539562d49b8a44982b3c8cd36821ea61bd5c9",
    ),
    ("Swim95", 11): (
        "0140ea1f978f170432ccaed97c4d35598db6d839503d8062268cb1e30d86c548",
        "f39a91e3ad9fc05d8ab4164c0c283bdfc3cdbe02f1792a3c706f49d562cb69b1",
        "e5361fe3c0445e977da02c47c4f88fb6c5af4516dca8ba2f321038bd3ae910ae",
        "99c2deca4a24138f9cb6cebdcce539562d49b8a44982b3c8cd36821ea61bd5c9",
    ),
    ("Vortex", 0): (
        "11e82e573043309868e6ba1a21967886cbdba8cc65ab78a8228d28b49d074929",
        "8341b30c3f403ebeee6941f8f3833096e3e9f5818f21b6afd1e078c3f7335df5",
        "d8dc1f712cbee254a42ef1b072e03a60bd204d539142ffe5752b1c00a0a6e91a",
        "78f26770388d6c0e69315f2974155f23c1d6a6d1a95c41961fdf785923d2ec65",
    ),
    ("Vortex", 11): (
        "bbfa7a97887bf933f3d00b1e2854248bf819fea9ff639d2261d7ea3827f0f62f",
        "f2ef2e6d4d10c4a3192799ae573959c2704d121b83c0ae7a9130f73cde0ac5de",
        "0c3b4202cae0950f726b26f95dd5bbcb9b5a544b6aff00f3016afc42d90f49c3",
        "9a1fd6aa600100f589a4beba31c1e7adaf18c501dedd12815270f110e51aae07",
    ),
}

#: SHA-256 of each committed scenario mix at its own seed: the trace
#: (addresses then is_write bytes) and the int16 tenant ids.
MIX_DIGESTS = {
    "Zipf-1T": (
        "03bbecc8fc121e271492cc14f8a26b2dc8429c013c4966649afe6c1001c3bc84",
        "8568d6b117678d53edec66018e6d52abe48837f64aebd6aee0153ddf2001ea51",
    ),
    "Zipf-4T": (
        "a8fff70354e4e8b07bb74079e69ace1e853dcfccd599794cb86f50dbbef7c860",
        "53ba13a8940b662d9f391d66ff24c4d9dff770c619b3fbadb686a72083238361",
    ),
    "Hot-1T": (
        "abb237850a6173a6052787a108e5df0e330c5ca6e5b0b799f57e3bb8fcedac59",
        "8568d6b117678d53edec66018e6d52abe48837f64aebd6aee0153ddf2001ea51",
    ),
    "Hot-4T": (
        "7cda2b66e273c9487e4293d563f2837f615a718481d0767f658b642486c24ca2",
        "53ba13a8940b662d9f391d66ff24c4d9dff770c619b3fbadb686a72083238361",
    ),
    "Burst-1T": (
        "121c443cd3eff17ea41ad0a339e2d4b732ff3c9fa6c2e4c00b641c9c5f778f3e",
        "8568d6b117678d53edec66018e6d52abe48837f64aebd6aee0153ddf2001ea51",
    ),
    "Burst-4T": (
        "1d45899436160f157ada8c22cb394697751865b8dab340479137aeeb6f7034c5",
        "53ba13a8940b662d9f391d66ff24c4d9dff770c619b3fbadb686a72083238361",
    ),
}


class TestTraceBytes:
    @pytest.mark.parametrize("name, seed", sorted(TRACE_DIGESTS))
    def test_trace_digests_pinned(self, name, seed):
        workload = get_workload(name)
        digests = tuple(
            _digest(trace.addresses, trace.is_write)
            for trace in (
                workload.generate(seed=seed, max_refs=budget)
                for budget in TRACE_BUDGETS
            )
        )
        assert digests == TRACE_DIGESTS[name, seed]

    def test_every_workload_is_pinned(self):
        assert {name for name, _ in TRACE_DIGESTS} == set(workload_names())

    @pytest.mark.parametrize("name", sorted(MIX_DIGESTS))
    def test_scenario_mix_digests_pinned(self, name):
        mixed = mix(ScenarioSpec.from_dict(SCENARIO_SPECS[name]))
        assert mixed.tenant_ids.dtype == np.int16
        assert (
            _digest(mixed.trace.addresses, mixed.trace.is_write),
            _digest(mixed.tenant_ids),
        ) == MIX_DIGESTS[name]

    def test_every_scenario_mix_is_pinned(self):
        assert set(MIX_DIGESTS) == set(SCENARIO_SPECS)

    @pytest.mark.parametrize("name", workload_names())
    def test_generate_is_a_prefix_of_stream(self, name):
        _assert_generate_is_a_prefix_of_stream(get_workload(name))

    @pytest.mark.parametrize("name", sorted(SCENARIO_SPECS))
    def test_scenario_generate_is_a_prefix_of_stream(self, name):
        spec = ScenarioSpec.from_dict(SCENARIO_SPECS[name])
        _assert_generate_is_a_prefix_of_stream(ScenarioWorkload(spec))


class TestPrefixMemory:
    """A small budget builds a small trace: no component is built whole.
    The SPEC95 grid codes' whole grids are 69-185 MiB of arrays at the
    default scale; 3,000 references need a few rows of them."""

    @pytest.mark.parametrize(
        "name", [cls.name for cls in (Applu, Hydro2d, Su2cor95, Swim95)]
    )
    def test_small_budget_peak_memory(self, name):
        workload = get_workload(name)
        tracemalloc.start()
        try:
            workload.generate(seed=0, max_refs=3_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _assert_generate_is_a_prefix_of_stream(workload: SyntheticWorkload) -> None:
    # generate() builds only the budget's prefix; it must be exactly the
    # whole stream cut short, at budgets the digests do not pin.
    addresses, writes = workload.stream(np.random.default_rng(3)).take()
    for budget in (1, 4_999, 77_777):
        expected = MemTrace(addresses[:budget], writes[:budget])
        assert workload.generate(seed=3, max_refs=budget) == expected
