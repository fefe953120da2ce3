"""Byte pins of the CLI: the sha256 of stdout (and of a sweep's CSV) for a
fixed set of invocations.

A change that claims to leave the output alone is checked here rather than
by hand. When a change moves bytes on purpose, it says which ones in
CHANGES.md and updates the digests below; ``PYTHONPATH=src python
tests/test_cli_bytes.py`` prints the current ones.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from mdlab.cli import main

_TWOPOINT = '{"family": "twopoint", "a": 2.0, "b": 1.0}'
_SKEWED = '{"family": "twopoint", "a": 1.5, "b": 0.8}'
_STUDENT = '{"family": "student_t", "nu": 5.0}'
_EXPONENTIAL = '{"family": "centered_exponential", "rate": 1.0}'
_UNIFORM = '{"family": "uniform", "half_width": 1.7320508075688772}'
_SCALES = [0.5, 1.0, 2.0, 1.5, 0.75, 3.0, 1.25, 0.9]
_RADEMACHER_03 = '{"family": "rademacher", "scale": 0.3}'


def _sim(dist, n, x, method, *extra):
    return ["simulate", "--dist", dist, "--n", str(n), "--x", x, "--samples", "4096",
            "--seed", "5", "--method", method, *extra]


def _sweep(dist, n_grid, x_values, **extra):
    return {"dist": json.loads(dist), "n_grid": n_grid, "x_values": x_values,
            "output": "s.csv", "seed": 3, **extra}


PROBES = {
    "theory_rademacher": ["theory", "--dist", "rademacher", "--n", "100", "--x", "2"],
    "theory_twopoint": ["theory", "--dist", _TWOPOINT, "--n", "50", "--x", "1.5"],
    "theory_uniform": ["theory", "--dist", _UNIFORM, "--n", "64", "--x", "1.5"],
    "theory_exponential": ["theory", "--dist", _EXPONENTIAL, "--n", "200", "--x", "2.5",
                           "--r", "0.5"],
    "theory_student_t": ["theory", "--dist", _STUDENT, "--n", "1000", "--x", "3",
                         "--delta", "0.5"],
    "theory_scales": ["theory", "--dist", _SKEWED, "--n", str(len(_SCALES)), "--x", "1.2",
                      "--scales", "scales.json"],
    "theory_rademacher_scales": ["theory", "--dist", _RADEMACHER_03, "--n", str(len(_SCALES)),
                                 "--x", "1.2", "--scales", "scales.json"],
    "enumerate_rademacher": ["enumerate", "--dist", "rademacher", "--n", "4", "--x", "1"],
    "enumerate_twopoint": ["enumerate", "--dist", _TWOPOINT, "--n", "12", "--x", "1.3"],
    "enumerate_skewed": ["enumerate", "--dist", _SKEWED, "--n", "10", "--x", "0.7"],
    "enumerate_rademacher_x0": ["enumerate", "--dist", _RADEMACHER_03, "--n", "6", "--x", "0"],
    "simulate_rademacher_naive": _sim("rademacher", 16, "1.5", "naive"),
    "simulate_rademacher_tilted": _sim("rademacher", 16, "2", "tilted"),
    "simulate_rademacher_scaled_tilted": _sim('{"family": "rademacher", "scale": 0.5}', 32, "2",
                                              "tilted"),
    "simulate_twopoint_naive": _sim(_TWOPOINT, 10, "1", "naive", "--workers", "2"),
    "simulate_twopoint_tilted": _sim(_TWOPOINT, 20, "1.5", "tilted"),
    "simulate_uniform_tilted": _sim(_UNIFORM, 32, "2", "tilted"),
    "simulate_exponential_naive": _sim(_EXPONENTIAL, 16, "1.5", "naive"),
    "simulate_student_t_naive": _sim(_STUDENT, 16, "1", "naive"),
    "sweep_rademacher_lattice": _sweep('{"family": "rademacher"}', [4, 16, 64], [0.0, 1.0, 2.5]),
    "sweep_twopoint_dp": _sweep(_SKEWED, [4, 12, 30], [0.5, 1.5]),
    "sweep_uniform_mc_fallback": _sweep(_UNIFORM, [8, 16, 32], [1.0], mc_samples=4096),
    "sweep_rademacher_mc_tilted": _sweep('{"family": "rademacher"}', [16, 32, 64], [1.5],
                                         engine="mc", mc_method="tilted", mc_samples=4096),
    "sweep_rademacher_mc_naive": _sweep(_RADEMACHER_03, [8, 16], [0.0, 1.0], engine="mc",
                                        mc_method="naive", mc_samples=4096),
}

DIGESTS = {
    "theory_rademacher": "3c09455076a77da2db4cb8b0083bc60ab2eae700a1aea402b3efc72495ca9092",
    "theory_twopoint": "35ecc216981583a5a062590229557177cda08890c30cad9ff9145975a961e143",
    "theory_uniform": "f6385ab664a75dbc49731a6baf90cfeeb802ce6c2c305fea2726d7c298ba9f53",
    "theory_exponential": "7084163534ef9ddb0adf01030f8482e57f43aca83d39881ba60609a9bbbe6d01",
    "theory_student_t": "7e313a39f624bdf60489458c48c71d99c5b7fd523a255ca399a17f87dd6e9f6c",
    "theory_scales": "e9adad34e88102a2cd23c2b036616267c972af02ff442056df1ca235c6153175",
    "theory_rademacher_scales": "b37f0b55283b062ab1e9f63680fa05512e7b39ecc956a0620e8c35e374f43ce8",
    "enumerate_rademacher": "b42207a8581ca283be3476ce481f4cd733707b46943455c2e5e3231fe307175d",
    "enumerate_twopoint": "ec712e6b7f070cd7c853e8d11588d78cad187bc4bb21e0cf154d9906664d9f47",
    "enumerate_skewed": "eb81992f3788520b63ffd26f4986ed596b472d38562fd0690ba4243d09f30349",
    "enumerate_rademacher_x0": "8f59e1dd3f321fe427c85fa394c9934aff4b789b1d9113d0c97b35d136c4df9b",
    "simulate_rademacher_naive": "5d9ec7b3e988abcabc241e359872aaa974d913c5136cd948d673efa35d09e19f",
    "simulate_rademacher_tilted": "fba55d19d786a79dcc7f4ae3e42b16f7c54b67b65880f0fc1c2d278aa6aa2cdc",
    "simulate_rademacher_scaled_tilted": "7c784780e379ebc3445a5ba723a352cfb363377dfd8f28700ff696675fd1ff18",
    "simulate_twopoint_naive": "c61c9ea0aaa1b96fd7a50bcb6359e37628b013bfcbb575ae2ee0a75ccf75c85e",
    "simulate_twopoint_tilted": "ba7603cf37f88ce5f680dbd55610b4c59ddf984c4ea90ac77f6bbe82c0e38042",
    "simulate_uniform_tilted": "217a84b5dfea12d67b5d195df803fc1349d4465c3c1c42a984cd67bb69042119",
    "simulate_exponential_naive": "d94a968e958554b0358d1db08ecec9538a4c64744f1eac7f2e8db8ba61b95592",
    "simulate_student_t_naive": "58fc3faaf9616724e04a3e05df844ad4958b694a54089e5b5f30ddb63fc48490",
    "sweep_rademacher_lattice": "5c6ae1c102fb689cada1e687dd0cd55d1a30ac01bf9ef82194da73b153615265",
    "sweep_rademacher_lattice.csv": "37c4339b9fea8bfc04041f34c40ce748b44eb34a3009dedb6bc7ad4cd990e516",
    "sweep_twopoint_dp": "8b699aedea93f7bfab5bebe99260d3d59ec961dbda20abd0259114a774ed4d5e",
    "sweep_twopoint_dp.csv": "c69b97930b81653c732b81110a7ca1befecae297a625fee767534e29b72e038a",
    "sweep_uniform_mc_fallback": "79e91ce1454c40cc60ffb8b9a5db13131470f8818a7049e839d0651e240bea05",
    "sweep_uniform_mc_fallback.csv": "eb10f9477a88b6c6d3950073dd30a434e4341d6b3a994f1dfe0b2b21699dac6e",
    "sweep_rademacher_mc_tilted": "eb1cd6cb2aead7450dce7e99a3231040018d6c146c5af705444da85428de87e3",
    "sweep_rademacher_mc_tilted.csv": "cb0564aa8f40a5b8f9cd32932b9f70273c11521589f7d5bd900502235762200a",
    "sweep_rademacher_mc_naive": "62e81ccdaa051962d29a72cd01ad677d77cd3154819f1be6159c8c136d420ea6",
    "sweep_rademacher_mc_naive.csv": "e8d32a8ba917489d9df8d0ebc68f1d1c2bff6f6c24d7d9dd179cec8f2792817d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_probe(name: str, workdir: str) -> dict:
    """{digest name: sha256} of one probe, run with ``workdir`` as the
    current directory; a sweep also pins its CSV."""
    probe = PROBES[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("scales.json", "w") as fh:
            json.dump(_SCALES, fh)
        if isinstance(probe, dict):
            with open("cfg.json", "w") as fh:
                json.dump(probe, fh)
            argv = ["sweep", "--config", "cfg.json"]
        else:
            argv = probe
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, (name, code)
        got = {name: _sha(out.getvalue().encode())}
        if isinstance(probe, dict):
            with open("s.csv", "rb") as fh:
                got[name + ".csv"] = _sha(fh.read())
        return got
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_cli_output_bytes_are_pinned(name, tmp_path):
    got = run_probe(name, str(tmp_path))
    assert got == {k: DIGESTS[k] for k in got}


if __name__ == "__main__":
    for probe_name in PROBES:
        with tempfile.TemporaryDirectory() as tmp:
            for key, digest in run_probe(probe_name, tmp).items():
                print(f'    "{key}": "{digest}",')
