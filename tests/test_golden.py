"""SHA-256 pins over the outputs of the Fano layer, the group layer and the CLI.

Each digest is taken over the repr of plain tuples and ints, with every set
sorted first, so it changes only when an output does. The pins hold the
outputs fixed while the code behind them is rewritten: a rewrite that keeps
the behaviour passes them unedited.
"""

import hashlib
import random

import pytest

from simplex_designs.cli import main
from simplex_designs.designs import (
    automorphism_group,
    block_orbit_count,
    flag_orbit_count,
    from_hadamard,
    render_incidence,
    to_hadamard,
)
from simplex_designs.fano import (
    INDEX_VALUES,
    automorphisms,
    equivalence_classes,
    fano_planes_on,
    index_spectrum,
    representative_of_index,
)
from simplex_designs.subsets import ElementSet, Permutation


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def seeded_support(n: int, seed: int) -> ElementSet:
    return ElementSet.of(sorted(random.Random(seed).sample(range(1, n + 1), 7)), n)


SUPPORTS = {
    "seven": ElementSet.full(7),
    "fifteen": ElementSet.of([2, 3, 5, 7, 11, 13, 14], 15),
    "thirty-one": seeded_support(31, 32),
}


def plane_outputs(support):
    """Points, lines, simplices and group of every plane on the support."""
    return tuple(
        (
            tuple(p.bits for p in f.points),
            tuple(tuple(sorted(line)) for line in f.lines()),
            tuple(tuple(sorted(s)) for s in f.simplices()),
            automorphisms(f),
        )
        for f in fano_planes_on(support)
    )


def pair_outputs(support):
    """Spectrum, classes and representatives of two planes on the support."""
    planes = fano_planes_on(support)
    f1, f2 = planes[3], planes[-2]
    classes = tuple(
        (rep.images, rep.source == f1, rep.target == f2, tuple(sorted(members)))
        for rep, members in equivalence_classes(f1, f2)
    )
    representatives = tuple(
        tuple(sorted((p.bits, q.bits) for p, q in d.mapping().items()))
        for d in (representative_of_index(f1, f2, idx) for idx in (7, 3, 1, 0))
    )
    return (
        tuple(sorted(index_spectrum(f1, f2).items())),
        classes,
        representatives,
        INDEX_VALUES,
    )


PLANE_DIGESTS = {
    "seven": "ac637937a70271ef9d0ac50c42164a7da733d1928c96302c83312d63bb8d328b",
    "fifteen": "44199435ba7445ad1b7463298d9c89e7845a7807bd75fd2b33d029371d98e1ae",
    "thirty-one": "3377ba4c544d9d791d40c421c2f331f174af4b4e86318985bda6794882bfd9a4",
}

PAIR_DIGESTS = {
    "seven": "f8c55a986df1b5d8ce87d60946e4b99a21e56f0093859cce05c394c6a5220c14",
    "fifteen": "7c4f5b4cd9629804c032c85b6fbfa4ae49d5c2d46376a8c9f77c38f190532a23",
    "thirty-one": "e2bc2347e63ac130b92c94ec14262b3417c73c73b8d8afc711299cbe09ce5b22",
}

CLI_DIGESTS = {
    ("construct", "c1"): "faa0917775f2c45fa012428352726c9183fa006346c70c57837f39788b1a0600",
    ("construct", "c2"): "5e41aed8f84dd2e4430298e4ac1561a7505a309bd99f2f51a770e0447a84915b",
    ("construct", "c3"): "150ffb8e7658b2530f5ff0ef18f40fc8fff9809eabb352d59689f6d987fe7e16",
    ("construct", "c4"): "a94dc1fd0dcdba8fc08ea68a91b0635d9e33b8bdde2d05363ee886c0d05d0054",
    ("construct", "non-centered"): "ba69709daa83c13a2c19fc943d0cceeae7ebd3af9bcb5162d596b35cfe6fa19f",
    ("construct", "hyperplane-complement"): "da89668160f442e7f85a033a931bc4b5032cd473c4502265d53ea81b9847786c",
    ("construct", "c1", "--hadamard-style", "pm"): "4726be2ab7d51d09d5423aecb6b5223817abfda686ee55f4ef75e5690a48d604",
    ("construct", "c2", "--hadamard-style", "pm"): "1c21f353d31775c2a1b31a79e86b49af14f9f3a4138f244dbfdca27af90f0cb9",
    ("construct", "c3", "--hadamard-style", "pm"): "a437d78244dc3d815c689034bfa0f81a406e67ae832a25c40bbe1befb739eaa0",
    ("construct", "c4", "--hadamard-style", "pm"): "917b47b7f282c2d17365a164ee548a9306eddaf3cce68a6ef4085fd063b4d622",
    ("construct", "non-centered", "--hadamard-style", "pm"): "b7844f9708c26e309b9a608573f21d4addcd11c214570fbfa95bf8bae0cfe559",
    ("construct", "hyperplane-complement", "--hadamard-style", "pm"): "6a23f7afff00617fce930dd2b48fe0eb2c94754a97657afe8f6e36dae294c7c6",
    ("census", "--delta-limit", "720"): "e6956e3bb20877297d1e7485bd71311dc9c78fe1360af210e5a0670569460b88",
    # the group orders, orbit counts and block systems of the five classes
    ("classify", "c1"): "378afb640bcf2689a61cca26f74a85a16bfc5ca1402e291debf402902d9b5bb7",
    ("classify", "c2"): "748042a67287d7388532bac8ba21a9f2829aaa3b9be0f78b1049ccdd1599dc8c",
    ("classify", "c3"): "40380dd637090c7e67b38d942c869c4b536e147daa1f5feb658fb4f518437bd4",
    ("classify", "c4"): "4c4b11ca23ed2d0d6143291d9d483e9c92731b1cab5331b1fd5f6a26cd44ada1",
    ("classify", "non-centered"): "b12c0d99429be5dc3b81b7142c27968fb4886f21bc58ba44c8a7c9e91c23198e",
    ("isomorphic", "c1", "c3"): "7bd7cf2c4274dfc80c6f93e33c81895231778a59d763cc56c35d7d80c16e3dc4",
    ("isomorphic", "c4", "non-centered"): "1cd31ca5ce763db96c4228b0ed1076e3595adc6da2d712edc723b0a3bb8c6436",
}

# the same commands rendered by --format text
TEXT_DIGESTS = {
    ("construct", "c1"): "75c0eaa6a0b0d474d1be12abbdaebdfb00f081cf2803c64edfe6b6f3d7dc197a",
    ("construct", "c2"): "7bfa6de6aeaf04653ea4f5aba6f4f4362b7f4d407a950ae43217093e8cc272d1",
    ("construct", "c3"): "9dce5b878b26957b82a4a8f86e0039a79e03f3e6fef990d61e0f00a7fddf17c4",
    ("construct", "c4"): "3755fe9475b7f317ccf6592795e3112277c97b7a6af7b886f58cf138aaa8f01a",
    ("construct", "non-centered"): "5373761c6c2f812c5cb4c17ed7fd23ec64a97e71e62376262517348681cef4ec",
    ("construct", "hyperplane-complement"): "9abc5032d0be63e25164ceb56b8d046d505bdb9ef2a00b3b296cefd893b991ef",
    ("construct", "c1", "--hadamard-style", "pm"): "98abcdda07ae637c0a0ca85649c73c9642a5ee3b03c3a60de8a24451408b4a5d",
    ("construct", "c2", "--hadamard-style", "pm"): "ffcac9a98893fb40f19ee51a265ab1d7c129ea4f47cfc4915ef26cf9ac1abd4b",
    ("construct", "c3", "--hadamard-style", "pm"): "72d07c979266d25a5eecb7760b169c7a35908827d3409b3d7aece4c583aaf920",
    ("construct", "c4", "--hadamard-style", "pm"): "94a423f749a354f3cda392b7017f2ab0c7512fb1975089d3519130eae88191c1",
    ("construct", "non-centered", "--hadamard-style", "pm"): "78c0ce5b2f2051a787045746eeec3944e62ba8186f9c6289f8c237faca16eb6a",
    ("construct", "hyperplane-complement", "--hadamard-style", "pm"): "98e3490d6e136a96e191a28c495d0da6dacd18fd9014a488f6e4a8f67468c9c4",
    ("census", "--delta-limit", "720"): "d5fede978f496816cf7681ce36a897f79bb6b1956cdb77581ce7cc09173e40d5",
    ("classify", "c1"): "93523dfc54bc4286db5650a7a53ebf2cc3d3629b8ebe22cedbbef2a501efd25d",
    ("classify", "c2"): "0c64a2e2ac9b10cac566cc6eeeba7d514ad3b293b96e2488ede045deaaec3450",
    ("classify", "c3"): "82d27432105c4994ca10ce401dd6878b566141d010a59caad0468e2eb8ef8d0f",
    ("classify", "c4"): "a66d8bcbc95f4b73342b828a2407fca5de0066bdc399ff85b6beab7d38acf24f",
    ("classify", "non-centered"): "17cff5452f2cb2f2c4aab8964ee14687c5a42b3207bf9ebb8f133681146ccf9b",
    ("isomorphic", "c1", "c3"): "a98ff14015e0222c03bfd567255b302c191d5ef653d36786fa9583b93562e965",
    ("isomorphic", "c4", "non-centered"): "9095c1fd5e29071cc518742afd8404fe9e671eb4c215206fa121f431746e6e5c",
}

# the bytes of the incidence and Hadamard files that --out-dir writes for
# every construct kind, in each --hadamard-style
OUT_DIR_DIGESTS = {
    "01": "ea5b126a81d3a365df9137b19a25bfc639d206bcb4ded1672c71aa2f8d843d2e",
    "pm": "1a646e19c8e31e34287137a60e5f3440d955b11f2bdeb154056a8e5b1360cf74",
}

# the seed of the Permutation.random(15, ...) that relabels each fixture
DESIGN_SEEDS = {"c1": 391, "c2": 392, "c3": 393, "c4": 394, "non_centered": 395}

# every group element in index order, both orbit counts and the Hadamard
# round trip, of each fixture and then of its relabeling
GROUP_DIGESTS = {
    "c1": (
        "e74eab905e533fb9888871e34dad647fd1f75c08d684d637286b6693956600af",
        "66bf493979540753bd6d6374b7214df9c518625b4bc027dec84df57d78e09ed8",
    ),
    "c2": (
        "fad0874b60017980b3445906b0230edd4e70e7ae9cec0aaee396c53433f370a9",
        "349e03adfa8fd36dd4957323d3e57e7abcb7f86dd9e793e09c30628487963d7d",
    ),
    "c3": (
        "d7ac0fd903d67a89764fd0d5c2a522b243cf12d2ef7f28d566c484475d34c561",
        "5eb0444d3fefb1819163534ab8851aea838162745f873e4a8b38b265fead9100",
    ),
    "c4": (
        "26c427044238794e93e163b0de3e2e99655f77b295c706398d23ac7f4f48cb4d",
        "dabac56cfff41b8147840a651fc974958c9ad87756ec167d2934f11a04948568",
    ),
    "non_centered": (
        "cf75284c691da07a397ec3608e63f376a34ed8eff9b2eb51094e834e8e2000ac",
        "ed38b5abe749aa286326511bd385736ed730db36a0194d42e321022681c6be3f",
    ),
}

# the witness found from c2 onto its relabeling by Permutation.random(15, Random(33))
RELABELED_C2_DIGEST = "d56766c1abf711b247464c37e37812cdcc7dced413dd27a9b098fa15fb06d0c3"
# the same witness rendered by --format text
RELABELED_C2_TEXT_DIGEST = "011c2bdd072c10a7ace1616f766787db2890082dd00bccbdee05b957348edbec"


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_plane_outputs_are_pinned(name):
    assert digest(plane_outputs(SUPPORTS[name])) == PLANE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_pair_outputs_are_pinned(name):
    assert digest(pair_outputs(SUPPORTS[name])) == PAIR_DIGESTS[name]


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS), ids=" ".join)
def test_sorted_kv_cli_output_is_pinned(capsys, argv):
    assert main(["--sorted", "--format", "kv", *argv]) == 0
    assert digest(capsys.readouterr().out) == CLI_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(TEXT_DIGESTS), ids=" ".join)
def test_sorted_text_cli_output_is_pinned(capsys, argv):
    assert main(["--sorted", "--format", "text", *argv]) == 0
    assert digest(capsys.readouterr().out) == TEXT_DIGESTS[argv]


@pytest.mark.parametrize("style", sorted(OUT_DIR_DIGESTS))
def test_out_dir_files_are_pinned(capsys, tmp_path, style):
    kinds = sorted({argv[1] for argv in CLI_DIGESTS if argv[0] == "construct"})
    for kind in kinds:
        argv = ["--out-dir", str(tmp_path), "construct", kind, "--hadamard-style", style]
        assert main(argv) == 0
    capsys.readouterr()
    files = tuple(sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir()))
    assert len(files) == 2 * len(kinds) == 12
    assert digest(files) == OUT_DIR_DIGESTS[style]


def test_witness_onto_a_relabeling_is_pinned(capsys, fixture_designs, tmp_path):
    e = fixture_designs["c2"].relabeled(Permutation.random(15, random.Random(33)))
    path = tmp_path / "c2.relabeled.txt"
    path.write_text(render_incidence(e) + "\n")
    assert main(["--sorted", "--format", "kv", "isomorphic", "c2", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    # the param. lines print the path, which differs from run to run
    last = max(i for i, line in enumerate(lines) if line.startswith("param."))
    assert lines[last + 1] == "isomorphic=true\n"
    assert digest("".join(lines[last + 1:])) == RELABELED_C2_DIGEST


def test_text_witness_onto_a_relabeling_is_pinned(capsys, fixture_designs, tmp_path):
    e = fixture_designs["c2"].relabeled(Permutation.random(15, random.Random(33)))
    path = tmp_path / "c2.relabeled.txt"
    path.write_text(render_incidence(e) + "\n")
    assert main(["--sorted", "--format", "text", "isomorphic", "c2", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    # the parameters print the path, so the digest starts at the verdict
    assert lines[4:5] == ["isomorphic: true\n"]
    assert digest("".join(lines[4:])) == RELABELED_C2_TEXT_DIGEST


def group_outputs(e):
    """The elements of e's group, its orbit counts and e's Hadamard matrix."""
    g = automorphism_group(e)
    h = to_hadamard(e)
    back = from_hadamard(h)
    assert back == e
    return (
        tuple(p.images for p in g.elements),
        block_orbit_count(e, g),
        flag_orbit_count(e, g),
        h.render("pm"),
        tuple(b.bits for b in back.blocks),
    )


@pytest.mark.parametrize("name", sorted(DESIGN_SEEDS))
def test_group_and_hadamard_outputs_are_pinned(fixture_designs, name):
    d = fixture_designs[name]
    e = d.relabeled(Permutation.random(15, random.Random(DESIGN_SEEDS[name])))
    assert (digest(group_outputs(d)), digest(group_outputs(e))) == GROUP_DIGESTS[name]


def test_seeded_support_is_stable():
    # the seeded support must not move, or its pins would pin another plane set
    assert SUPPORTS["thirty-one"] == ElementSet.of([3, 5, 7, 8, 10, 23, 30], 31)
