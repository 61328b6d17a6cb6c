"""Pinned SHA-256 digests of the estimator reports.

Every report of valid input must keep its bytes for identical (flags, seed)
unless a change means to move them; such a change updates the constants
here in the same commit. The runs cover run-cc, run-disc, run-mis and
run-mst on their generator presets, two seeds each, in both stream orders,
each sampling every vertex as a root.

Print the current digests with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io

import pytest

from streamscope.cli import main

COMMANDS = {
    "run-cc": ["--gen", "cc-benchmark", "--tau", "0.3", "--samples", "230",
               "--kmax", "3"],
    "run-disc": ["--gen", "disc-benchmark", "--tau", "0.4", "--samples",
                 "240", "--k", "2", "--d", "2"],
    "run-mis": ["--gen", "mis-components", "--tau", "0.5", "--samples",
                "300", "--k", "1", "--d", "3", "--mis-samples", "200"],
    "run-mst": ["--gen", "mst-path", "--tau", "0.4", "--samples", "200",
                "--kmax", "3"],
}
SEEDS = ("3", "11")
ORDERS = ("shuffled", "given")

DIGESTS = {
    "run-cc 3 shuffled":
        "330d6b5916e718d127cba13ede92c120361ce33bf2a209db1d4d1da1b6d39de8",
    "run-cc 3 given":
        "57cb299b18a913806073a3ee7b17b75a38b91168e5857350b9086ff486910ce7",
    "run-cc 11 shuffled":
        "406bd12752f441deae3534df6ce1abdd85218967b975053e7170b850c0b9f1b6",
    "run-cc 11 given":
        "2f81858ccbcb3e40dd01424cdb0883b3f316a9ba5328e122b9f0e39d3b7337bb",
    "run-disc 3 shuffled":
        "4e4066c5d2f1c9917cb97f4197f7359a9e46caf7e33292731100b12f58f9b4fa",
    "run-disc 3 given":
        "464830f64b1084ad8710bf950330f5846589f25392ff1a28f97b6c46756c1530",
    "run-disc 11 shuffled":
        "94418960c7b9cd783e7d571eb7c41123c81012d86478728ce7d524b27d293fc4",
    "run-disc 11 given":
        "8f0a6aa9a8ab7ac69d92a1a59f6e7eaf252bb97db799e6a9a05fbca75997ae4a",
    "run-mis 3 shuffled":
        "0f0c64b4d1c0cb1a07e3fab384719f537758c09d66f759de345b40794a51b5a5",
    "run-mis 3 given":
        "0019ccc8fc918db50c56de79b945b82522212882d4ffc524a2ad51be7e397609",
    "run-mis 11 shuffled":
        "1ad1317477e2428b9e21d55ab74c5914cb95be17419e55361eccadbd2d3cf603",
    "run-mis 11 given":
        "83251318a7876aa074b28f08dcaec3ba7d364732966d8d9667d519a069d7d39a",
    "run-mst 3 shuffled":
        "67f7d1d291501e3333b4bb8b77f966a4d88afc781ea365b3757fffe40738e981",
    "run-mst 3 given":
        "8d6d5c2ac25dae3464b0314344d518d64612739cef3c02d693d4881892095336",
    "run-mst 11 shuffled":
        "5c33e7a6bc0834bdfc0196f2c0e40c837991ddb3b870929c70d7aff37e51365b",
    "run-mst 11 given":
        "bc0f732e2725e867893657cc0ec378a14037ecd06a978af5bc3508497cb3d77f",
}


def _report_digest(command, seed, order):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([command, *COMMANDS[command], "--seed", seed,
                   "--stream-order", order])
    assert rc == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


CASES = [(c, s, o) for c in COMMANDS for s in SEEDS for o in ORDERS]


@pytest.mark.parametrize("command,seed,order", CASES)
def test_report_bytes_are_pinned(command, seed, order):
    assert _report_digest(command, seed, order) \
        == DIGESTS[f"{command} {seed} {order}"]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{" ".join(case)}":\n        '
              f'"{_report_digest(*case)}",')
