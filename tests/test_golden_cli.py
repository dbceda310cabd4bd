"""The CLI's output, command by command, against the golden transcript in tests/golden/cli.json."""

import json

import pytest

from golden import make

GOLDEN = json.loads(make.GOLDEN.read_text())


@pytest.fixture(scope="module")
def replayed():
    return make.replay()


def test_the_command_list_is_the_golden_one():
    assert [r["argv"] for r in GOLDEN] == make.commands()


@pytest.mark.parametrize("i", range(len(GOLDEN)), ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_each_command_prints_its_golden_output(replayed, i):
    assert replayed[i] == GOLDEN[i]
