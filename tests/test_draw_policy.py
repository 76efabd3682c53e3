"""The draw policy of the property tests (see `conftest.py`): one hypothesis
profile, and case tables whose draws are pinned by digest."""

import hashlib
import os
import re

# importing the modules that hold case tables builds the tables
import test_fairpart  # noqa: F401
import test_isoperimetric  # noqa: F401
import test_linsolve  # noqa: F401
import test_search  # noqa: F401
from conftest import TABLES, case_repr

TESTS = os.path.dirname(__file__)

# sha256 over each table's case reprs, one case a line: a change to the
# draws changes the digest, so it shows in review
TABLE_DIGESTS = {
    "test_band_rings_measure_their_closed_forms":
        "e0079a8d8b86de6e37b8f3cd346d0ea57b87d38089bc737f7eebe9924b90e002",
    "test_exact_choice_on_random_lines":
        "4fb4f63d6e6f6a1a390a0273b95fb15a077ac6bf4ebd975a49829075d3b02075",
    "test_integer_solve_matches_dense_reference":
        "18b7e289712a4b54406d4109f1c283780f35548b0452f83025e5795c9b9921fd",
    "test_integer_widths_answer_as_their_fractions":
        "f934289a7754da76958aed4a85c2002171d9d092c5c2cc2cef9f43ef7438f72b",
    "test_large_floorplans_solve_to_a_line":
        "2afe2a22184a87eb72014ae2dc55b9eba838ab2b577c024db2de1e8bff233454",
    "test_mirror_code_has_the_same_outcome":
        "6d6e75b12d90095adcf47ac72cd5bbc3c14f2730d714d5ac67116bb6ee372885",
    "test_one_period_sweep_matches_the_full_sweep":
        "3067973ec8cf27da0a2d3d9b367e334dc51ef28bf67d903147cdef767420ceb6",
    "test_one_pass_answers_as_the_widths_and_heights_as_forms":
        "65cd87fda1aeccbf4500d787ec52e70852f28904dd0e67b706487066b9e7209b",
    "test_positive_point_ignores_a_common_positive_scale":
        "4ccde8e44fbcfe9a4d97671ce41931c20f680c7a6c725ad729608fa28d682168",
    "test_positive_point_is_exact_on_points_and_lines":
        "eb75f30faf2724ab4a89b38921957cccd55f1a5c6558cdab65ce2eecdc0071ed",
    "test_same_solution_space_compares_equal":
        "b8284c4c1ce5cadcdd541cf11dcc7e1700a18f3f596e143d88b97a4dd3051967",
    "test_scaling_the_tiles_scales_every_result":
        "709224aa12a924586d2c7931b0e95deb73d1e214e08a94a9dbc7e79b017514e5",
    "test_side_sums_equal_every_pick":
        "8b2e2ad1e61f6064eff1fc5e1ff7eb65f98548176599482367bc90af46dfc32f",
    "test_sweep_matches_the_offset_oracle_at_every_grid_angle":
        "7da2a630b5a0ee3f7b411655029293abc08198974812177d3d7296d51404d4cf",
    "test_the_rank_theorem_step_by_step":
        "3772ba670d1e7a9196eeb0cb5c3da000f72d0b13fc0110e7e18fc3dcc8ae5119",
}

# what only the profile in conftest.py may set: a seed, and the settings
# that make draws repeat
PER_TEST_POLICY = re.compile(
    r"@seed\s*\(|\b(derandomize|deadline|database)\s*=|from hypothesis import [^\n]*\bseed\b"
)


def table_digest(cases):
    return hashlib.sha256("\n".join(map(case_repr, cases)).encode()).hexdigest()


def test_case_tables_keep_their_draws():
    assert {name: table_digest(cases) for name, cases in TABLES.items()} == TABLE_DIGESTS


def test_no_test_sets_its_own_draw_policy():
    found = []
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py") and name != "conftest.py":
            with open(os.path.join(TESTS, name)) as f:
                found += [f"{name}:{k}: {line.strip()}"
                          for k, line in enumerate(f, 1) if PER_TEST_POLICY.search(line)]
    assert not found
