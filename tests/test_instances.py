"""Instance files: canonical JSON, validation, and seeded generators."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from minrank import (
    GENERATOR_KINDS,
    Instance,
    InstanceError,
    MinRankOracle,
    UniformMatroid,
    bit,
    check_promise_no_circuit_inclusion,
    crossed_partition_instance,
    dumps,
    largest_circuit_size,
    load,
    loads,
    mask_of,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
    save,
)


# -- round trips -----------------------------------------------------------------


def test_round_trip_is_identity_across_kinds():
    for kind in GENERATOR_KINDS:
        for seed in range(4):
            inst = random_instance(seed, 8 if kind != "explicit" else 6, kinds=(kind,))
            text = dumps(inst)
            again = dumps(loads(text))
            assert text == again, f"kind={kind} seed={seed}"


def test_round_trip_weighted_and_named():
    inst = crossed_partition_instance(weights=(5, 4, 4, 1))
    text = dumps(inst)
    back = loads(text)
    assert back.weights == tuple(Fraction(x) for x in (5, 4, 4, 1))
    assert dumps(back) == text


def test_dumps_is_canonical():
    text = dumps(crossed_partition_instance())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert doc["schema"] == 1


def test_fractional_weights_survive_as_strings():
    inst = Instance(
        4,
        crossed_partition_instance().matroid1,
        crossed_partition_instance().matroid2,
        weights=(Fraction(1, 3), Fraction(2), Fraction(0), Fraction(-7, 2)),
    )
    doc = json.loads(dumps(inst))
    assert doc["weights"] == ["1/3", "2", "0", "-7/2"]
    assert loads(dumps(inst)).weights == inst.weights


def test_save_load(tmp_path):
    path = tmp_path / "inst.json"
    inst = random_instance(3, 7, weighted=True)
    save(str(path), inst)
    again = load(str(path))
    assert dumps(again) == dumps(inst)


# -- validation ------------------------------------------------------------------


def _doc(**overrides):
    doc = json.loads(dumps(crossed_partition_instance()))
    doc.update(overrides)
    return json.dumps(doc)


def test_loads_rejects_bad_schema_and_shape():
    with pytest.raises(InstanceError, match="unsupported schema"):
        loads(_doc(schema=2))
    with pytest.raises(InstanceError, match="invalid JSON"):
        loads("{nope")
    with pytest.raises(InstanceError, match="JSON object"):
        loads("[1, 2]")
    with pytest.raises(InstanceError, match="missing field 'n'"):
        loads(json.dumps({"schema": 1}))
    with pytest.raises(InstanceError, match="outside the supported range"):
        loads(_doc(n=65))
    for bad in ("x", None, [1], 2.5, True):
        with pytest.raises(InstanceError, match="n: expected an integer"):
            loads(_doc(n=bad))


def test_loads_rejects_missing_or_unknown_matroid():
    doc = json.loads(_doc())
    del doc["matroid2"]
    with pytest.raises(InstanceError, match="matroid2"):
        loads(json.dumps(doc))
    with pytest.raises(InstanceError, match="unknown kind"):
        loads(_doc(matroid1={"kind": "frobnicated"}))
    with pytest.raises(InstanceError, match="missing field 'k'"):
        loads(_doc(matroid1={"kind": "uniform", "n": 4}))


def test_loads_refuses_a_matroid_spec_that_is_not_an_object():
    with pytest.raises(InstanceError, match="matroid1: expected an object, got list"):
        loads(_doc(matroid1=["uniform", 2]))


def test_dumps_refuses_a_kind_without_a_file_form():
    class Opaque(UniformMatroid):
        kind = "opaque"

    inst = crossed_partition_instance()
    with pytest.raises(InstanceError, match="matroid kind 'opaque' has no file form"):
        dumps(inst._replace(matroid2=Opaque(2, inst.n)))


def test_loads_rejects_bad_linear_entries_with_fraction_errors():
    for text in ("0x1", "", "1/0", "one"):
        with pytest.raises((ValueError, ZeroDivisionError)) as parsed:
            Fraction(text)
        rows = [[text, "1", "0", "1"], ["0", "1", "1", "0"]]
        doc = _doc(matroid1={"kind": "linear-rational", "rows": rows})
        with pytest.raises(InstanceError) as info:
            loads(doc)
        assert str(info.value) == f"matroid1: {parsed.value}"


def test_loads_rejects_size_disagreement():
    with pytest.raises(InstanceError, match="disagrees with n"):
        loads(_doc(matroid1={"kind": "uniform", "k": 2, "n": 5}))


def test_loads_rejects_wrong_length_names_and_weights():
    with pytest.raises(InstanceError, match="names"):
        loads(_doc(names=["a", "b"]))
    with pytest.raises(InstanceError, match="names: expected a list of 4 strings"):
        loads(_doc(names=[1, None, {"a": 2}, [3]]))
    with pytest.raises(InstanceError, match="weights"):
        loads(_doc(weights=["1"]))
    with pytest.raises(InstanceError, match="weights"):
        loads(_doc(weights=["1", "x", "3", "4"]))
    # A JSON float is binary, not the decimal written; a bool is no weight.
    for bad, shown in ((0.1, "0.1"), (True, "true"), (2.0, "2.0"), (None, "null")):
        with pytest.raises(InstanceError, match=f'weights: {shown} .*"0.1"'):
            loads(_doc(weights=[1, bad, "3", "4"]))
    inst = loads(_doc(weights=[1, "0.1", "1/3", "-2"]))
    assert inst.weights == (1, Fraction(1, 10), Fraction(1, 3), -2)


_GRAPHIC = {"kind": "graphic", "num_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2], [0, 1]]}
_EXPLICIT = {"kind": "explicit", "n": 4, "family": [[], [0], [1], [2], [3]]}
_PARTITION = {"kind": "partition", "n": 4, "blocks": [[0, 1], [2, 3]], "capacities": [1, 1]}


@pytest.mark.parametrize(
    "spec, field, shown",
    [
        ({"kind": "uniform", "k": 2.7, "n": 4}, "k", "2.7"),
        ({"kind": "uniform", "k": True, "n": 4}, "k", "true"),
        ({"kind": "uniform", "k": "2", "n": 4}, "k", '"2"'),
        ({"kind": "uniform", "k": 2, "n": 4.0}, "n", "4.0"),
        ({**_GRAPHIC, "num_vertices": 3.5}, "num_vertices", "3.5"),
        ({**_GRAPHIC, "edges": [[0, 1.9], [1, 2], [0, 2], [0, 1]]}, "edges", "1.9"),
        ({**_GRAPHIC, "edges": [[0, True], [1, 2], [0, 2], [0, 1]]}, "edges", "true"),
        ({**_PARTITION, "capacities": [1.5, True]}, "capacities", "1.5"),
        ({**_PARTITION, "capacities": [1, True]}, "capacities", "true"),
        ({**_PARTITION, "blocks": [[0, True], [2, 3]]}, "blocks", "true"),
        ({**_PARTITION, "n": 4.0}, "n", "4.0"),
        ({**_EXPLICIT, "n": 4.0}, "n", "4.0"),
        ({**_EXPLICIT, "family": [[], [0], [True], [2], [3]]}, "family", "true"),
    ],
)
def test_loads_refuses_matroid_fields_that_are_not_json_integers(spec, field, shown):
    # int() would truncate each float and read each bool as 0 or 1.
    with pytest.raises(InstanceError) as info:
        loads(_doc(matroid1=spec))
    assert str(info.value) == f"matroid1: {field}: expected an integer, got {shown}"


def test_loads_rejects_loops():
    # A zero-capacity block makes its elements loops.
    bad = _doc(
        matroid1={
            "kind": "partition",
            "n": 4,
            "blocks": [[0, 1], [2, 3]],
            "capacities": [0, 1],
        }
    )
    with pytest.raises(InstanceError, match="loop"):
        loads(bad)


def test_loads_rejects_non_matroid_family():
    # {0,1} declared independent but its subset {1} missing: not downward closed.
    bad = json.dumps(
        {
            "schema": 1,
            "n": 2,
            "matroid1": {"kind": "explicit", "n": 2, "family": [[], [0], [0, 1]]},
            "matroid2": {"kind": "uniform", "k": 2, "n": 2},
        }
    )
    with pytest.raises(InstanceError, match="not a matroid"):
        loads(bad)


def test_weight_vector_defaults_to_ones():
    inst = crossed_partition_instance()
    assert inst.weights is None
    assert inst.weight_vector() == (1, 1, 1, 1)


def test_crossed_fixture_shape():
    inst = crossed_partition_instance()
    assert inst.n == 4
    o = MinRankOracle(inst.matroid1, inst.matroid2)
    assert o.rmin(mask_of((0, 3))) == 2
    assert o.rmin(mask_of((0, 1))) == 1


# -- generators ------------------------------------------------------------------


def test_generators_are_deterministic():
    for maker in (
        lambda: random_instance(7, 9, weighted=True),
        lambda: random_promise_instance(7, 9),
        lambda: random_fpt_instance(7, 9, gamma=3),
        lambda: random_lexmax_instance(7, 9),
    ):
        assert dumps(maker()) == dumps(maker())


def test_random_instances_are_loadable_and_loopless():
    for seed in range(10):
        inst = random_instance(seed, 10, weighted=seed % 2 == 0)
        again = loads(dumps(inst))  # loads re-checks looplessness
        assert again.n == 10


def test_promise_generator_property():
    for seed in range(8):
        inst = random_promise_instance(seed, 8)
        assert check_promise_no_circuit_inclusion(inst.matroid1, inst.matroid2)


def test_fpt_generator_bounds_circuits():
    for seed in range(8):
        for gamma in (2, 3):
            inst = random_fpt_instance(seed, 8, gamma=gamma)
            assert largest_circuit_size(inst.matroid1) <= gamma
            assert inst.weights is not None


def test_fpt_generator_rejects_small_gamma():
    with pytest.raises(ValueError):
        random_fpt_instance(0, 8, gamma=1)


def test_lexmax_generator_has_few_weight_classes():
    for seed in range(6):
        inst = random_lexmax_instance(seed, 9)
        assert inst.weights is not None
        assert len(set(inst.weights)) <= 3


def test_random_instance_respects_kind_filter():
    for seed in range(5):
        inst = random_instance(seed, 8, kinds=("graphic",))
        assert inst.matroid1.kind == "graphic"
        assert inst.matroid2.kind == "graphic"


def test_random_instance_distinct_seeds_differ():
    texts = {dumps(random_instance(seed, 10)) for seed in range(12)}
    assert len(texts) > 1
