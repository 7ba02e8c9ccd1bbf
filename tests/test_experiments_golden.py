"""Byte-for-byte pins of the figure and ablation CLI outputs.

Each case runs one experiment subcommand at smoke size and pins the sha256
of its stdout and of every file it writes.  A refactor of the experiment
layer must leave all of them unchanged.  After an intentional change of
simulated results (which also moves ``tests/test_golden_regression.py``),
copy the new digests from the ``pytest -vv`` failure diff.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

SMOKE = ["--num-runs", "1", "--horizon-days", "0.5"]
SWEEP = ["--detailed", "--chart"]

#: name -> (argv, sha256 of "stdout" and of each file the command writes)
CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    "figure1": (
        ["figure1", *SMOKE, "--bandwidths-gbs", "40", "160", *SWEEP,
         "--csv", "f1.csv", "--json", "f1.json"],
        {
            "stdout": "b91a0555608ad2176771a730ee877825a97212f017386c053bb3f40b9812f382",
            "f1.csv": "d80070a9d33cfba6a9beb353302f65ea28b0495c8374bf0300444c0c2039f056",
            "f1.json": "af3d00b3ddd6bdcc39e6223d5f72d021a93953c342ade51fbce40d5878c5769d",
        },
    ),
    "figure2": (
        ["figure2", *SMOKE, "--mtbf-years", "2", "50", *SWEEP,
         "--csv", "f2.csv", "--json", "f2.json"],
        {
            "stdout": "ac475797252b2378033e0885d52b82b39c7bd80f28122022b2565de98cc0085d",
            "f2.csv": "0d33fa3799c28282ff4c6b93c9c42292fb3144879886b8da86afde53667926b2",
            "f2.json": "ac76322081422bf241d971f7842cd08cdc249bcc297f9646038c2ff7d0835ddf",
        },
    ),
    "figure3": (
        ["figure3", *SMOKE, "--mtbf-years", "25", "--csv", "f3.csv"],
        {
            "stdout": "ec6c7912d293013d8f90d57e8a8e90739f841d5975b0903ac56c660b4a13b028",
            "f3.csv": "fdaf87b07977ad1544e1447127c8c054e3e00d35180e9820319ed28ea8071032",
        },
    ),
    "ablation-fixed-period": (
        ["ablation", "--study", "fixed-period", *SMOKE],
        {"stdout": "bfb0d8e96d3f01b6fde056cad727c54492b0998bf23a3f8ee6cb1fd2dd145147"},
    ),
    "ablation-interference": (
        ["ablation", "--study", "interference", *SMOKE],
        {"stdout": "d2d2307aeb52aa12eaa880b2d0a3d032f571b5f409b287add489cdf6282ed686"},
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, tmp_path, monkeypatch, capsys):
    argv, golden = CASES[name]
    monkeypatch.chdir(tmp_path)  # the output names the files it wrote
    assert main(argv) == 0
    digests = {"stdout": _sha256(capsys.readouterr().out.encode())}
    for written in golden.keys() - {"stdout"}:
        digests[written] = _sha256((tmp_path / written).read_bytes())
    assert digests == golden
