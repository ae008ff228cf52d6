"""The command-line contract, pinned: what each case writes, and its exit code.

Each case is an argv and an environment, with the sha256 of the bytes
the command writes to stdout and to stderr, and its exit code.  Most
run in process through cli.main; a fresh interpreter runs only the
cases whose stdout is a pipe with no reader or whose --output is
/dev/full.  The numeric sessions' bits are pinned in test_numeric_pins.

A digest pins the bytes of an accepted tree; it does not vouch for
them: the correctness of the output is the business of the other
tests.  A change that alters output on purpose edits the entry, and
says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stirlingexp import cli

EMPTY = hashlib.sha256(b"").hexdigest()

# argparse wraps its usage text to the terminal's width, which it takes
# from COLUMNS before it asks the terminal
ENVIRONMENT = {"COLUMNS": "80"}

# (how, argv, environment, sha256 of stdout, sha256 of stderr, exit
# code).  how is "main" for a call of cli.main in this process,
# "process" for a fresh interpreter, "closed-pipe" for one whose stdout
# is a pipe with no reader (its stdout digest is of no bytes)
CASES = [
    ("main", "coeffs --max 25", {},
     "155382a61659a0acf7b8468b4f88c782e62a71f6e75f1c5940c9c483cdcfa3bd",
     EMPTY, 0),
    ("main", "coeffs --max 25 --format json", {},
     "61f5c50476a8db2f7116f5d2e9e6b07194319b9d486aa39265584c44102c1235",
     EMPTY, 0),
    ("main", "coeffs --max 25 --format csv", {},
     "1e3c480681bc4933908fe126f3e28aabe522358ce1ee58732c21183ddbdae417",
     EMPTY, 0),
    ("main", "coeffs --max 24 --methods bernoulli exp-kernel", {},
     "d77386294a2ce06f76b5050e74418447fb661e19b5c6c51593a3a17f6c7be567",
     EMPTY, 0),
    ("main", "coeffs --max 24 --methods bernoulli exp-kernel --format json", {},
     "e610acac1732aa1c97cf7c9c897f272b48659f44b1776ed2c6cbcbdbc96a5286",
     EMPTY, 0),
    ("main", "coeffs --max 24 --methods bernoulli exp-kernel --format csv", {},
     "aed104a5bf896fd33b89423add1d65b002f7365f3c5e08a4ddfec77adbee9539",
     EMPTY, 0),
    ("main", "series --which inv-exp --order 30", {},
     "b9079fe8437beee7c8b5db96d8f6b6c5bac79eb3cf6f319d1d0de7ee6c398cdf",
     EMPTY, 0),
    ("main", "series --which inv-exp --order 30 --format json", {},
     "b8d37461e8da1145094b54c0221ecff0322eefb9203c6032c77b394318ffdf2e",
     EMPTY, 0),
    ("main", "series --which inv-exp --order 30 --format csv", {},
     "f2b4478c0002f8d72facc6e431ec25c3d4e76401c0dd85b4798715cffc5e6f28",
     EMPTY, 0),
    ("main", "series --which inv-log --order 30", {},
     "7aded736f4451b428f607245d13e0f934786427b46c7899ceb06680276c570e9",
     EMPTY, 0),
    ("main", "series --which inv-log --order 30 --format json", {},
     "bd12a6fe7de6c0c81eae26cdcb2722373256bbeb40e2c08d4445d73d8a69cb7c",
     EMPTY, 0),
    ("main", "series --which inv-log --order 30 --format csv", {},
     "ff7dd6069586e7db56cd1f4b0855f2c5ddff5dea6f0863f952b413aa321a2549",
     EMPTY, 0),
    ("main", "verify --max 25", {},
     "dc53df4d26eb99bc0310b6e29b93e342bda288f1eb0abc1ff7461fe90a96a316",
     EMPTY, 0),
    ("main", "verify --max 25 --format json", {},
     "6a9663e97d764bd2d91aad3092923bd56fae5b3aab25277d0522b152370a32bf",
     EMPTY, 0),
    ("main", "comb --r 3 --max-n 500", {},
     "dcb23e383428fb3337490e0765ac0278fd44542b4d9afe955efc546c1f2cd451",
     EMPTY, 0),
    ("main", "comb --r 3 --max-n 500 --format json", {},
     "358d608fb703bc625acc27da1a322e2b1f059d512820852038cba08619f3199b",
     EMPTY, 0),
    ("main", "comb --r 3 --max-n 500 --format csv", {},
     "9e973c021b11a8869f36bf515a3e7603d2e1ec0d404115b0971e13c2f40ea125",
     EMPTY, 0),
    ("main", "comb --r 3 --max-n 500 --kind derangement", {},
     "c9b1e82e92da250b6ea0e734ee0dbd3c1c8481c6cf7f13a50ead18eecf78f8b4",
     EMPTY, 0),
    ("main", "comb --r 3 --max-n 500 --kind derangement --format json", {},
     "6b7a688793b408530a9f0d782218807922175fd6810ff8ebf9f81e0d8421bfd8",
     EMPTY, 0),
    ("main", "comb --r 3 --max-n 500 --kind derangement --format csv", {},
     "0866c504e13d92bfef82640232196f89e9016861b69c12b496fcbf2c76581d6d",
     EMPTY, 0),
    ("main", "approx --n 1000 --terms 80 --precision-bits 1024", {},
     "35e8c7ea4c937074c3d11ae9cce5f37775597c44248a26bfb0d07142bd60aafb",
     EMPTY, 0),
    ("main", "approx --n 1000 --terms 80 --precision-bits 1024 --format json", {},
     "6b2364bc6a916fe33e7c79f5fa9162c52d7ec8a15113c800498c156f2fa4a516",
     EMPTY, 0),
    ("main", "approx --n 1000 --terms 80 --precision-bits 1024 --format csv", {},
     "9acc2cb4a64526320ccecc7940a324870fbb9ad948a900520c204b3c6b20918a",
     EMPTY, 0),
    ("main", "approx --n 5", {},
     "cfdcd2a261dcfb40e308ea8e258ddef0fbf2798393566860b80f07e89dc0e3e6",
     EMPTY, 0),
    ("main", "approx --n 5 --format json", {},
     "7c620a634e32242b9c476e762fdd2fde0df4addeb1934a3caf7944483cd8ed7f",
     EMPTY, 0),
    ("main", "approx --n 5 --format csv", {},
     "aa4c8a91cb4991a6316f7ce2fd6720da33a6ff73509a53c54cc452039a6c21bd",
     EMPTY, 0),
    ("main", "approx --n 5", {"STIRLINGEXP_PRECISION_BITS": "512"},
     "9c0bd96ad64cea33569014613f9d20d7197e90b266e11dc3f60e70c6caeb4c41",
     EMPTY, 0),
    ("main", "approx --n 5", {"STIRLINGEXP_PRECISION_BITS": "10"},
     EMPTY,
     "4be29664995d86a35f0395a24d21b7e71463ee63900d28dc04f8a4f3589fadfc", 2),
    ("main", "approx --n 5", {"STIRLINGEXP_PRECISION_BITS": "x"},
     EMPTY,
     "234a8a9b52b59f765888a3bb0b3ec29e1bad67e5fdd78576594298a1d9b6a7ab", 2),
    ("main", "approx --n 0", {},
     EMPTY,
     "293f2a433dd2a031db4ff580cf89e23c0b55c7258ac881f780caee49c34a7dfb", 2),
    ("main", "approx --n 5 --precision-bits 63", {},
     EMPTY,
     "beb57f707dc4f42a594f195a4353559c8def777558090dc798ec2dc5165cfe99", 2),
    ("main", "coeffs --max -1", {},
     EMPTY,
     "b475dfe9cf814dc1ff09b200e8d209df15f5ac54abe716512899024f6eb67dd6", 2),
    ("main", "bogus", {},
     EMPTY,
     "01d534b1c4316bcfeee65407b563a09494f124bb706c1c0332761b56457ffaaf", 2),
    ("process", "--output /dev/full coeffs --max 25", {},
     EMPTY,
     "584ad51fa4ba4b4ff891a938fcae4642bc644c2f34c7ad2253539edda93ad728", 2),
    ("process", "--output /dev/full comb --r 3 --max-n 500", {},
     EMPTY,
     "584ad51fa4ba4b4ff891a938fcae4642bc644c2f34c7ad2253539edda93ad728", 2),
    ("closed-pipe", "coeffs --max 25", {},
     EMPTY,
     "9960f2f469bc915c76341a74451d19874c7718c8dc4f50beaeef9fc65dea9a65", 2),
    ("closed-pipe", "comb --r 3 --max-n 500", {},
     EMPTY,
     "9960f2f469bc915c76341a74451d19874c7718c8dc4f50beaeef9fc65dea9a65", 2),
    # the report at each size and precision, in each format
    ("main", "approx --n 5 --precision-bits 64", {},
     "7b99b5c9b39397064f44a96310b18abcc078a02c5b13e569db8facf171d1e5ee",
     EMPTY, 0),
    ("main", "approx --n 5 --precision-bits 64 --format json", {},
     "c68552d46661440f33b1596fb039b7d9710ffd565bb7db1c645347ec0c4100ed",
     EMPTY, 0),
    ("main", "approx --n 5 --precision-bits 64 --format csv", {},
     "7d51c645a5c98407462e6f009d38034407e518b4a4252307bef43bc7f25e4c5a",
     EMPTY, 0),
    ("main", "approx --n 5 --precision-bits 128", {},
     "cfdcd2a261dcfb40e308ea8e258ddef0fbf2798393566860b80f07e89dc0e3e6",
     EMPTY, 0),
    ("main", "approx --n 5 --precision-bits 128 --format json", {},
     "7c620a634e32242b9c476e762fdd2fde0df4addeb1934a3caf7944483cd8ed7f",
     EMPTY, 0),
    ("main", "approx --n 5 --precision-bits 128 --format csv", {},
     "aa4c8a91cb4991a6316f7ce2fd6720da33a6ff73509a53c54cc452039a6c21bd",
     EMPTY, 0),
    ("main", "approx --n 5 --precision-bits 1024", {},
     "eaa5b5dafefca6e91417acd9b337469df70d7e72063b5f9c8dbb9c3b3799820e",
     EMPTY, 0),
    ("main", "approx --n 5 --precision-bits 1024 --format json", {},
     "ee9fd46ab1aef796d8d4bf2069bbdea73b125c744e67e3b95f4956b61558c251",
     EMPTY, 0),
    ("main", "approx --n 5 --precision-bits 1024 --format csv", {},
     "4b951e58793809b66e76b424c332438ea1a1cd1e284865be152caaadccb39e6d",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 64", {},
     "c97d41b4d41164949c48b25fba7a61daf43c8dc1702894fe6c3de6fed15ddfad",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 64 --format json", {},
     "29cecac0ea37be714882c19869ef589068b4ab6c7e4089f6886f19ad8602e322",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 64 --format csv", {},
     "5d8283f2dfaf865f16de913e6a8fb4f17af23e0ba1578f114c77c67310a49459",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 128", {},
     "4b3b44d7e1a62b374563a05f58c5b939869c149377a5e3129f62ba12446beac7",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 128 --format json", {},
     "dc34d942f5a5cc1e8fa027249dbae3fa1f8474759a3be311eb893acb31925eca",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 128 --format csv", {},
     "5dbdb97166440b08ab20fda007385449efbb1c9046934d9726e4cc5eecd4f80f",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 1024", {},
     "e0ff9e9eaee062e5efabff9e2c0a6cf5869fc1ff58902f89194fa1672ebc49c8",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 1024 --format json", {},
     "eadd262ea101790a7a213f64693f11302962985f8489293cd075d3cc7bcdc50b",
     EMPTY, 0),
    ("main", "approx --n 50 --precision-bits 1024 --format csv", {},
     "2c6f09acbf543de1589f6d4b10bfac7607fb5943d8c40bcdb61dfaf6c8b0e225",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 64", {},
     "bba623d239adeaeb595826804967dea36a3494a1860284aba4c1747b48336930",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 64 --format json", {},
     "ae5c440782e5f908997ea6cbee1cc30ac7f87146c45b5403de52c998aa0e044f",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 64 --format csv", {},
     "375f926ef2b9c4ff65be37c6392c45ffa5e800fb06e104db595eb460f6145d04",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 128", {},
     "5a290f042e5aeda2bc7db2e89b6ea9771109b5becd005bf9e74a48e205e760ea",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 128 --format json", {},
     "f2b00d08e7064d8365ec5493a3257b1c7fdb401ca880e97f0c12c6d5990f97b0",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 128 --format csv", {},
     "4ecb590a542bc330560d260f3b683a4db2d640fcd6e4ee63ed1d72d802912521",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 1024", {},
     "57d65e98102d97e0ef4f0c9c7170ca3e50aee9a0da7fd3035b1cdba6ce2a7c86",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 1024 --format json", {},
     "14c7a5a0aa35a6fe7236ab1458863c735143e639358d6486d3ab2eb225badf8c",
     EMPTY, 0),
    ("main", "approx --n 1000 --precision-bits 1024 --format csv", {},
     "5e8792cc27e46d790aec905991e7e22956ddbd15100e102962ca92359eb5928a",
     EMPTY, 0),
]

# the ceiling of --precision-bits, about 2 s
SLOW_CASES = [
    ("main", "approx --n 1000 --precision-bits 262144", {},
     "e1ce4933d36b82765d5901998a1a24b35b1119322e564ae83511ce41276b0199",
     EMPTY, 0),
]


class _Sha256Stream:
    """A text stream that keeps only the sha256 of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


def _run_in_process(argv, environment):
    """(stdout digest, stderr digest, exit code) of cli.main(argv)."""
    out, err = _Sha256Stream(), _Sha256Stream()
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(cli.PRECISION_ENV_VAR, raising=False)
        for name, value in {**ENVIRONMENT, **environment}.items():
            patch.setenv(name, value)
        patch.setattr(sys, "stdout", out)
        patch.setattr(sys, "stderr", err)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return out.digest.hexdigest(), err.digest.hexdigest(), code


def _run_in_a_process(argv, environment, closed_pipe):
    """The same, for python -m stirlingexp.cli in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop(cli.PRECISION_ENV_VAR, None)
    env.update(ENVIRONMENT, **environment)
    command = [sys.executable, "-m", "stirlingexp.cli", *argv]
    if not closed_pipe:
        done = subprocess.run(command, env=env, capture_output=True, timeout=60)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                command, env=env, stdout=write_end, stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
    out = hashlib.sha256(done.stdout or b"").hexdigest()
    return out, hashlib.sha256(done.stderr).hexdigest(), done.returncode


def outcome(how, argv, environment):
    """(stdout digest, stderr digest, exit code) of one case."""
    if how == "main":
        return _run_in_process(argv.split(), environment)
    return _run_in_a_process(argv.split(), environment, how == "closed-pipe")


def _param(case, marks=()):
    how, argv, environment, *_ = case
    words = [how, argv, *(f"{k}={v}" for k, v in environment.items())]
    return pytest.param(case, id=" ".join(words), marks=marks)


@pytest.mark.parametrize(
    "case",
    [
        _param(case)
        for case in CASES
        if "/dev/full" not in case[1] or os.path.exists("/dev/full")
    ]
    + [_param(case, pytest.mark.slow) for case in SLOW_CASES],
)
def test_command_writes_its_pinned_bytes(case):
    how, argv, environment, *expected = case
    assert list(outcome(how, argv, environment)) == expected
