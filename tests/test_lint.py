"""Determinism lint: the mechanical ban on wall clocks and ambient RNG,
plus the process-plumbing rule that holds everywhere."""

from repro.analysis.lint import (
    DETERMINISTIC_PACKAGES,
    lint_source,
    lint_tree,
    repo_root,
)


#: One wall-clock read (DET001) and one spawn-then-join (SIM001).
_BOTH_KINDS = "import time\ndef p(sim):\n    t = time.time()\n    yield sim.spawn(w())\n"


def _codes(source):
    return [v.code for v in lint_source(source)]


class TestLintRules:
    def test_wall_clock_time(self):
        assert _codes("import time\nt = time.time()\n") == ["DET001"]
        assert _codes("import time\nt = time.monotonic_ns()\n") == ["DET001"]

    def test_wall_clock_datetime(self):
        assert _codes(
            "import datetime\nd = datetime.datetime.now()\n") == ["DET002"]
        assert _codes(
            "from datetime import datetime\nd = datetime.utcnow()\n"
        ) == ["DET002"]

    def test_module_level_random(self):
        assert _codes("import random\nx = random.random()\n") == ["DET003"]
        assert _codes("import random\nx = random.shuffle(items)\n") == ["DET003"]
        assert _codes("import random\nx = random.SystemRandom()\n") == ["DET003"]

    def test_seeded_instance_is_legal(self):
        assert _codes("import random\nrng = random.Random(42)\n") == []
        assert _codes(
            "import random\nrng = random.Random(1)\nx = rng.random()\n") == []

    def test_local_attributes_do_not_false_positive(self):
        # `self.random`, `time` as a variable, strings, comments.
        clean = (
            "class A:\n"
            "    def f(self):\n"
            "        return self.random.choice([1])\n"
            "time = 5  # a local named time\n"
            "s = 'time.time() in a string'\n"
        )
        assert _codes(clean) == []

    def test_unparseable_module_is_reported(self):
        assert _codes("def f(:\n") == ["DET000"]

    def test_spawn_joined_on_the_spot(self):
        assert _codes("def p(sim):\n    yield sim.spawn(work())\n") == ["SIM001"]
        assert _codes(
            "def p(self, body):\n    r = yield self.sim.spawn(body, name='b')\n"
        ) == ["SIM001"]

    def test_spawn_beside_the_caller_is_legal(self):
        clean = (
            "def p(sim):\n"
            "    proc = sim.spawn(work())\n"
            "    yield sim.any_of([proc.done_event, sim.timeout(5.0)])\n"
            "    result = yield from work()\n"
            "    yield proc\n"
        )
        assert _codes(clean) == []

    def test_outside_the_core_only_the_plumbing_rule_applies(self):
        assert [v.code for v in lint_source(_BOTH_KINDS, deterministic=False)] == ["SIM001"]


class TestLintScope:
    def test_simulation_core_is_clean(self):
        assert lint_tree(repo_root()) == []

    def test_tree_walk_applies_each_rule_in_its_scope(self, tmp_path):
        for package in ("sim", "bench"):
            (tmp_path / package).mkdir()
            (tmp_path / package / "m.py").write_text(_BOTH_KINDS)
        found = [(v.path.split("/")[-2], v.code) for v in lint_tree(str(tmp_path))]
        assert found == [("bench", "SIM001"), ("sim", "DET001"), ("sim", "SIM001")]

    def test_scope_names_real_packages(self):
        import os

        for package in DETERMINISTIC_PACKAGES:
            assert os.path.isdir(os.path.join(repo_root(), package))


class TestLintCli:
    def test_subcommand_clean_run(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        assert "determinism lint clean" in capsys.readouterr().out

    def test_subcommand_flags_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        assert "DET001" in capsys.readouterr().out
