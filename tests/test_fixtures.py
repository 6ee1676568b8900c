"""The checked-in fixture documents must stay identical to the canonical
in-package definitions."""

import json
import os

from socketstore.fixtures import (
    EVALUATION_TOPOLOGY,
    FLASH_DELIVERY_NSD,
    flash_delivery_manifest,
)
from socketstore.moduledef import manifest_from_doc

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "fixtures")


def test_topology_file_matches_canonical():
    with open(os.path.join(FIXTURES, "evaluation_topology.json")) as fh:
        assert json.load(fh) == EVALUATION_TOPOLOGY


def test_nsd_file_matches_canonical():
    with open(os.path.join(FIXTURES, "flash_delivery", "nsd.xml")) as fh:
        assert fh.read() == FLASH_DELIVERY_NSD


def test_manifest_file_parses_to_canonical(library):
    with open(os.path.join(FIXTURES, "flash_delivery", "manifest.json")) as fh:
        manifest = manifest_from_doc(json.load(fh), library)
    assert manifest == flash_delivery_manifest(library)
