"""The checked-in ``results/*.json`` are the byte-identity contract every
refactor is judged against (CI's ``artifact-freshness`` job regenerates
them all).  Nothing the tier-1 suite runs may rewrite one at other
parameters: ``tests/test_cli.py`` runs ``fig1 --requests 300``, which used
to replace ``results/fig1_motivation.json`` with a 50-request run on every
test run — that is how the committed copy went stale."""

import repro.bench
from repro.cli import main


def _saved_by(monkeypatch, argv):
    saved = []
    monkeypatch.setattr(
        repro.bench, "save_results", lambda name, payload: saved.append(name)
    )
    assert main(argv) == 0
    return saved


def test_resized_legacy_command_leaves_the_artifact_alone(monkeypatch, capsys):
    assert _saved_by(monkeypatch, ["fig1", "--requests", "300"]) == []
    assert "results/fig1_motivation.json left untouched" in capsys.readouterr().out


def test_legacy_command_at_the_configs_own_parameters_writes_it(monkeypatch, capsys):
    # An explicit flag that merely repeats the config's value is canonical.
    assert _saved_by(monkeypatch, ["sec56", "--seed", "42"]) == ["sec56_replication"]
    assert "results written to results/sec56_replication.json" in capsys.readouterr().out
