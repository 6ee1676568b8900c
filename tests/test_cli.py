import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socketstore.cli import build_parser, main
from socketstore.fixtures import flash_delivery_manifest, write_fixture_tree
from socketstore.moduledef import manifest_to_doc

from .test_wire import JSON

AUTHOR = "pathworks-labs"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SOCKETSTORE_DATA", str(tmp_path / "store.json"))
    write_fixture_tree(str(tmp_path / "fixtures"))
    return tmp_path


def run(*argv) -> int:
    return main(list(argv))


def submit_flash(workdir) -> None:
    assert run("register-specialist", AUTHOR) == 0
    assert run("submit", str(workdir / "fixtures" / "flash_delivery")) == 0


class TestLifecycleWalk:
    def test_submit_review_accept_search(self, workdir, capsys):
        submit_flash(workdir)
        assert run("review", "flash-delivery", "--start") == 0
        assert run("review", "flash-delivery", "--accept") == 0
        assert run("search", "flash") == 0
        out = capsys.readouterr().out
        assert "flash-delivery" in out.splitlines()[-1]

    def test_search_with_nothing_published(self, workdir, capsys):
        submit_flash(workdir)  # submitted, not yet published
        assert run("search", "flash") == 0
        assert capsys.readouterr().out.splitlines()[-1] == "no published modules match"

    def test_accept_without_start_is_illegal(self, workdir, capsys):
        submit_flash(workdir)
        assert run("review", "flash-delivery", "--accept") == 1
        assert "illegal transition" in capsys.readouterr().err

    def test_publish_fast_path(self, workdir, capsys):
        submit_flash(workdir)
        assert run("publish", "flash-delivery") == 0
        assert "published" in capsys.readouterr().out

    def test_retire(self, workdir, capsys):
        submit_flash(workdir)
        run("publish", "flash-delivery")
        assert run("retire", "flash-delivery") == 0
        assert "retired" in capsys.readouterr().out

    def test_revise_and_resubmit(self, workdir, capsys):
        submit_flash(workdir)
        run("review", "flash-delivery", "--start")
        assert run("review", "flash-delivery", "--revise") == 0
        manifest_path = workdir / "fixtures" / "flash_delivery" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["version"] = 2
        manifest_path.write_text(json.dumps(doc))
        assert run("resubmit", "flash-delivery",
                   str(workdir / "fixtures" / "flash_delivery")) == 0
        assert "in_review" in capsys.readouterr().out

    def test_submit_unknown_dir_fails_cleanly(self, workdir, capsys):
        assert run("submit", str(workdir / "nope")) == 1
        assert "error:" in capsys.readouterr().err


class TestPurchaseAuthorize:
    def test_purchase_prints_token(self, workdir, capsys):
        submit_flash(workdir)
        run("publish", "flash-delivery")
        capsys.readouterr()
        assert run("purchase", "--app", "demo", "--module", "flash-delivery") == 0
        token = capsys.readouterr().out.strip()
        assert token
        assert run("authorize", "--token", token, "--module", "flash-delivery") == 0
        assert capsys.readouterr().out.strip() == "allow"
        assert run("authorize", "--token", "junk", "--module", "flash-delivery") == 0
        assert capsys.readouterr().out.strip() == "deny"

    def test_purchase_unpublished_fails(self, workdir, capsys):
        submit_flash(workdir)
        assert run("purchase", "--app", "demo", "--module", "flash-delivery") == 1
        assert "not published" in capsys.readouterr().err


class TestEval:
    def test_eval_module(self, workdir, capsys):
        submit_flash(workdir)
        run("publish", "flash-delivery")
        assert run("eval", "--module", "flash-delivery") == 0
        out = capsys.readouterr().out
        assert "in_deadline_ratio" in out
        assert "1.000000" in out

    def test_eval_baseline(self, workdir, capsys):
        assert run("eval", "--module", "baseline") == 0
        assert "0.800000" in capsys.readouterr().out


class TestLog:
    def test_log_lists_actions(self, workdir, capsys):
        submit_flash(workdir)
        assert run("log") == 0
        out = capsys.readouterr().out
        assert "register_specialist" in out
        assert "submit_module" in out

    @pytest.mark.parametrize("indent", [2, None], ids=["indented", "compact"])
    def test_old_format_file_takes_a_write_and_lists_every_entry(self, workdir, capsys, indent):
        """A store file of one JSON document, the format before the snapshot
        line and entry lines: a CLI write rewrites it in the new format, and
        `log` lists its entries and then the new one."""
        path = workdir / "store.json"
        path.write_text(json.dumps({"specialists": [AUTHOR], "logical_ms": 1.0, "log": [
            {"ts_ms": 1.0, "actor": AUTHOR, "action": "register_specialist", "outcome": "ok",
             "detail": {}}]}, indent=indent))
        assert run("register-specialist", "second-author") == 0
        assert path.read_text().count("\n") == 3  # the snapshot line and two entry lines
        capsys.readouterr()
        assert run("log") == 0
        assert capsys.readouterr().out == (f"1.000\t{AUTHOR}\tregister_specialist\tok\t\n"
                                           "2.000\tsecond-author\tregister_specialist\tok\t\n")

    def test_log_times_never_decrease_across_experiment_runs(self, workdir, capsys):
        """A simulator attached to a store read from its file runs on from the
        latest entry, so each run's entries follow the last run's."""
        submit_flash(workdir)
        assert run("publish", "flash-delivery") == 0
        for _ in range(2):
            assert run("run-experiment", "--use-data", "--packets", "200",
                       "--out", str(workdir / "out")) == 0
        run("authorize", "--token", "bogus", "--module", "flash-delivery")
        capsys.readouterr()
        assert run("log") == 0
        times = [float(line.split("\t")[0]) for line in capsys.readouterr().out.splitlines()]
        assert len(times) > 20
        assert times == sorted(times)

    def test_log_filter_by_actor(self, workdir, capsys):
        submit_flash(workdir)
        capsys.readouterr()
        assert run("log", "--actor", AUTHOR) == 0
        for line in capsys.readouterr().out.splitlines():
            assert f"\t{AUTHOR}\t" in line


class TestRunExperiment:
    def test_module_experiment_writes_artifacts(self, workdir, capsys):
        out_dir = workdir / "out"
        assert run("run-experiment", "--out", str(out_dir), "--seed", "7") == 0
        stdout = capsys.readouterr().out
        assert "mode: module" in stdout
        assert "losses: 0" in stdout
        assert (out_dir / "flash-delivery-packets.csv").exists()
        assert (out_dir / "flash-delivery-summary.json").exists()

    def test_baseline_experiment(self, workdir, capsys):
        out_dir = workdir / "out"
        assert run("run-experiment", "--module", "baseline", "--out", str(out_dir)) == 0
        stdout = capsys.readouterr().out
        assert "mode: baseline" in stdout
        assert "violations: 20" in stdout

    def test_zero_packets_config_error(self, workdir, capsys):
        assert run("run-experiment", "--packets", "0") == 1
        assert "packet count" in capsys.readouterr().err

    def test_bad_inject_spec(self, workdir, capsys):
        assert run("run-experiment", "--inject", "R4-B:10") == 1
        assert "--inject expects" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"injection": "R4-B"},
        {"packet_count": "100"},
        {"injection": {"link": "R4-B", "extra": 1}},
        {"rate_mbps": "10"},
        {"injection": {"extra_ms": "10"}},
        {"payload_size": "x"},
        {"packet_count": 1.5},
        {"topology_path": 5},
        {"k": 1.5},
        {"gap_ms": True},
        {"purchase": "no"},
        {"deadline_ms": float("inf")},
        {"deadline_ms": 10**400},
        {"deadline_ms": 1e308},
        {"injection": {"start_ms": -1e308}},
    ])
    def test_mistyped_config_file_is_an_error(self, workdir, capsys, doc):
        path = workdir / "config.json"
        path.write_text(json.dumps(doc))
        assert run("run-experiment", "--config", str(path),
                   "--out", str(workdir / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1
        assert "config" in err  # blamed on the file, not on what a bad value did

    @pytest.mark.parametrize("argv, violation", [
        (("--deadline", "nan"), "config.deadline_ms must be a finite number"),
        (("--gap", "inf"), "config.gap_ms must be a finite number"),
        (("--rate", "inf"), "config.rate_mbps must be a finite number"),
        (("--inject", "R4-B:inf:40:60"), "config.injection.extra_ms must be a finite number"),
        (("--deadline", "1e308"), "config.deadline_ms must be between -1.8e+302 and 1.8e+302"),
        (("--gap", "1e308"), "config.gap_ms must be between -1.8e+302 and 1.8e+302"),
        (("--inject", "R4-B:1e308:40:60"),
         "config.injection.extra_ms must be between -1.8e+302 and 1.8e+302"),
        (("--inject", "R4-B:10:40:1e308"),
         "config.injection.end_ms must be between -1.8e+302 and 1.8e+302"),
    ])
    def test_option_is_checked_as_a_config_field(self, workdir, capsys, argv, violation):
        out_dir = workdir / "out"
        assert run("run-experiment", *argv, "--out", str(out_dir)) == 1
        assert assert_one_error_line(capsys) == f"error: {violation}\n"
        assert not out_dir.exists()

    def test_negative_payload_size_is_an_error(self, workdir, capsys):
        path = workdir / "config.json"
        path.write_text(json.dumps({"payload_size": -5, "packet_count": 3}))
        out_dir = workdir / "out"
        assert run("run-experiment", "--config", str(path), "--out", str(out_dir)) == 1
        assert capsys.readouterr().err == "error: payload size must be >= 0\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("module", ["flash-delivery", "baseline"])
    def test_shipped_topology_file_matches_the_default_run(self, workdir, module):
        topology = Path(__file__).resolve().parents[1] / "fixtures" / "evaluation_topology.json"
        assert run("run-experiment", "--module", module, "--out", str(workdir / "default")) == 0
        assert run("run-experiment", "--module", module, "--topology", str(topology),
                   "--out", str(workdir / "file")) == 0
        name = f"{module}-packets.csv"
        assert (workdir / "file" / name).read_bytes() == (workdir / "default" / name).read_bytes()

    def test_topology_with_one_host_is_an_error(self, workdir, capsys):
        path = workdir / "one-host.json"
        path.write_text(json.dumps({
            "nodes": [{"id": "H", "kind": "host", "nic_count": 1}, {"id": "S", "kind": "switch"}],
            "links": [{"endpoints": ["H", "S"], "capacity_mbps": 100, "latency_ms": 0.5}],
        }))
        for module in ("flash-delivery", "baseline"):
            assert run("run-experiment", "--module", module, "--topology", str(path),
                       "--out", str(workdir / "out")) == 1
            err = capsys.readouterr().err
            assert err == "error: the experiment needs two hosts, the topology has 1\n"

    def test_host_with_more_nics_than_ports_is_an_error(self, workdir, capsys):
        """NIC i of a DSA host binds port 5000 + i, so a host of 70,000 NICs
        runs past port 65535."""
        topology = Path(__file__).resolve().parents[1] / "fixtures" / "evaluation_topology.json"
        doc = json.loads(topology.read_text())
        for node in doc["nodes"]:
            if node["kind"] == "host":
                node["nic_count"] = 70_000
        path = workdir / "many-nics.json"
        path.write_text(json.dumps(doc))
        assert run("run-experiment", "--topology", str(path), "--packets", "5",
                   "--out", str(workdir / "out")) == 1
        assert assert_one_error_line(capsys) == "error: port 65536 out of range\n"

    @pytest.mark.parametrize("argv", [
        ("--inject", "R9-X:10:40:60"),
        ("--inject", "R4-B:10:60:40"),
    ])
    def test_injection_the_network_rejects_is_an_error(self, workdir, capsys, argv):
        assert run("run-experiment", *argv, "--out", str(workdir / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unpurchased_against_data_store_reports_fallback(self, workdir, capsys):
        submit_flash(workdir)
        run("publish", "flash-delivery")
        capsys.readouterr()
        out_dir = workdir / "out"
        assert run("run-experiment", "--use-data", "--no-purchase",
                   "--out", str(out_dir)) == 0
        stdout = capsys.readouterr().out
        assert "mode: fallback" in stdout
        assert "authorization denied" in stdout


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


class TestMalformedFiles:
    def test_manifest_that_is_not_an_object_is_an_error(self, workdir, capsys):
        module_dir = workdir / "fixtures" / "flash_delivery"
        (module_dir / "manifest.json").write_text("[]")
        assert run("register-specialist", AUTHOR) == 0
        assert run("submit", str(module_dir)) == 1
        assert assert_one_error_line(capsys).endswith("manifest must be an object\n")

    @pytest.mark.parametrize("doc", [
        {"log": 5}, [], {"revoked_tokens": 7}, {"modules": [5]}, {"specialists": "abc"},
        {"logical_ms": "x"},
        {"licenses": [{"app_id": "a", "module_id": "m", "issued_at_ms": 1, "token": "t", "x": 1}]},
        {"modules": [{**manifest_to_doc(flash_delivery_manifest()), "metric_ids": []}]},
        {"logical_ms": 10**400},
        json.loads(json.dumps({"modules": [{**manifest_to_doc(flash_delivery_manifest()),
                                            "price": "x"}]})),
    ], ids=["log", "not-an-object", "revoked-tokens", "module", "specialists", "logical-ms",
            "license-key", "module-no-metric", "logical-ms-beyond-float", "module-price"])
    @pytest.mark.parametrize("argv", [("search",), ("register-specialist", AUTHOR)],
                             ids=["read", "write"])
    def test_malformed_store_file_is_one_error_line(self, workdir, capsys, doc, argv):
        path = workdir / "store.json"
        path.write_text(json.dumps(doc))
        assert run("--data", str(path), *argv) == 1
        assert "store" in assert_one_error_line(capsys)
        assert json.loads(path.read_text()) == doc  # left as it was

    @pytest.mark.parametrize("line, text", [
        (3, '{"action":"authorize",'), (3, '{"action":"authorize","actor":"demo-'),
        (2, None), (3, ""),
    ], ids=["cut-after-a-comma", "cut-in-a-string", "no-closing-brace", "empty"])
    def test_malformed_entry_line_is_named_by_its_line_in_the_file(
            self, workdir, capsys, line, text):
        path = workdir / "store.json"
        for author in ("a", "b", "c"):
            assert run("--data", str(path), "register-specialist", author) == 0
        lines = path.read_text().splitlines()
        lines[line - 1] = lines[line - 1][:-1] if text is None else text
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("--data", str(path), "search") == 1
        assert assert_one_error_line(capsys).startswith(f"error: store line {line}: ")

    def test_store_file_nested_too_deep_is_one_error_line(self, workdir, capsys):
        path = workdir / "store.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run("--data", str(path), "search") == 1
        assert "recursion" in assert_one_error_line(capsys)

    def test_malformed_topology_file_is_one_error_line(self, workdir, capsys):
        path = workdir / "topology.json"
        path.write_text(json.dumps({"nodes": [{"id": "A", "kind": "host", "nic_count": "x"}]}))
        assert run("run-experiment", "--topology", str(path), "--out", str(workdir / "out")) == 1
        assert assert_one_error_line(capsys) == "error: node.nic_count must be an int or null\n"


def any_document(*names):
    """Arbitrary JSON, or an object keyed by some of `names` with arbitrary JSON values."""
    return JSON | st.dictionaries(st.sampled_from(names), JSON, max_size=4)


# Fields a drawn config may set. The others name a file to read or write
# (`topology_path`, `data_path`, `output_dir`), a payload to allocate
# (`payload_size`) or a run that lasts for hours (`packet_count`, `gap_ms`).
CONFIG_FIELDS = ("module", "deadline_ms", "injection", "k", "rate_mbps", "seed", "app_id",
                 "purchase")
STORE_FIELDS = ("specialists", "metrics", "modules", "licenses", "revoked_tokens", "samples",
                "log", "logical_ms")
MANIFEST_FIELDS = ("module_id", "name", "version", "author", "metric_ids", "nsd", "dsa_ref",
                   "price", "state", "description")
# every command that reads the store file; `serve` would not return
STORE_COMMANDS = [
    ("register-specialist", AUTHOR), ("submit", "{module}"),
    ("review", "flash-delivery", "--start"), ("publish", "flash-delivery"),
    ("resubmit", "flash-delivery", "{module}"),
    ("retire", "flash-delivery"), ("search", "flash"),
    ("purchase", "--app", "demo", "--module", "flash-delivery"),
    ("authorize", "--token", "t", "--module", "flash-delivery"), ("eval", "--module", "baseline"),
    ("log",), ("run-experiment", "--use-data", "--packets", "3", "--out", "{dir}/out"),
]
FILE_CASES = st.one_of(
    st.tuples(st.just("config.json"), any_document(*CONFIG_FIELDS), st.just(
        ("run-experiment", "--config", "{file}", "--packets", "3", "--out", "{dir}/out"))),
    st.tuples(st.just("store.json"), any_document(*STORE_FIELDS), st.sampled_from(STORE_COMMANDS)),
    st.tuples(st.just("flash_delivery/manifest.json"), any_document(*MANIFEST_FIELDS),
              st.sampled_from([("submit", "{module}"),
                               ("resubmit", "flash-delivery", "{module}")])),
)


@settings(max_examples=200, deadline=None)
@given(case=FILE_CASES)
def test_property_any_json_file_exits_0_or_with_one_error_line(case):
    """Arbitrary JSON as the `--config` file, the `--data` store file or a
    module's `manifest.json`: every command exits 0, or exits 1 with exactly
    one `error: ...` line, and never raises."""
    name, doc, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        write_fixture_tree(tmp)
        Path(tmp, name).write_text(json.dumps(doc))
        values = {"file": str(Path(tmp, name)), "dir": tmp, "module": f"{tmp}/flash_delivery"}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--data", f"{tmp}/store.json", *(arg.format(**values) for arg in argv)])
        if code:
            assert code == 1 and err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""


class TestInitFixtures:
    def test_writes_tree(self, workdir, capsys):
        out = workdir / "fresh"
        assert run("init-fixtures", "--out", str(out)) == 0
        assert (out / "evaluation_topology.json").exists()
        assert (out / "flash_delivery" / "manifest.json").exists()
        assert (out / "flash_delivery" / "nsd.xml").exists()


class TestCommandParity:
    # every store operation must be reachable from the CLI
    OPERATION_TO_COMMAND = {
        "submit_module": "submit",
        "start_review": "review",
        "review_decision": "review",
        "resubmit_revision": "resubmit",
        "retire_module": "retire",
        "run_testbed_evaluation": "eval",
        "search_modules": "search",
        "purchase": "purchase",
        "authorize": "authorize",
        "instantiate": "run-experiment",  # via the DSA connect handshake
        "cost": "run-experiment",  # cost report in the experiment summary
        "teardown_instance": "run-experiment",  # close() at end of run
        "log_action": "register-specialist",  # every mutation logs
        "read_log": "log",
        "register_specialist": "register-specialist",
    }

    def test_every_operation_reachable(self):
        from socketstore.store import SocketStore

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        commands = set(sub.choices)
        for op, command in self.OPERATION_TO_COMMAND.items():
            assert hasattr(SocketStore, op), f"store lost operation {op}"
            assert command in commands, f"{op} unreachable: no command {command}"

    def test_spec_named_commands_exist(self):
        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        for command in ("serve", "submit", "review", "publish", "search",
                        "purchase", "eval", "run-experiment"):
            assert command in sub.choices
