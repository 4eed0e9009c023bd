import copy
import enum
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cycle_request, make_net, make_path_request
from pcvne import jsonio
from pcvne.jsonio import (
    InstanceFormatError,
    dump_instance,
    dump_json,
    embedding_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)
from pcvne.model import ModelError, Shape, VirtualRequest
from reductions import gen_edp_reduction


def test_round_trip_integers():
    net = make_net([0, 1, 2], [(0, 1), (1, 2)], {0: 3, 1: 4, 2: 5}, 7)
    reqs = [make_path_request("a", [1, 2], [3], revenue=4),
            make_cycle_request("b", [1, 1, 1], [2, 2, 2], revenue=5)]
    buf = io.StringIO()
    dump_instance(net, reqs, buf)
    buf.seek(0)
    net2, reqs2 = load_instance(buf)
    assert net2.nodes == net.nodes
    assert net2.edges == net.edges
    assert net2.cpu_capacity == net.cpu_capacity
    assert net2.bw_capacity == net.bw_capacity
    assert len(reqs2) == 2
    assert reqs2[0].cpu_demand == {0: 1, 1: 2}
    assert reqs2[1].revenue == 5


def test_round_trip_fractions():
    net = make_net([0, 1], [(0, 1)], {0: Fraction(5, 2), 1: 3}, {(0, 1): Fraction(7, 3)})
    data = instance_to_dict(net, [])
    assert data["nodes"][0]["cpu"] == "5/2"
    net2, _ = instance_from_dict(data)
    assert net2.cpu_capacity[0] == Fraction(5, 2)
    assert net2.bw_capacity[(0, 1)] == Fraction(7, 3)


def test_decimal_floats_parse_exactly():
    data = {
        "nodes": [{"id": 0, "cpu": 1.5}, {"id": 1, "cpu": 2}],
        "edges": [{"u": 0, "v": 1, "bw": 0.1}],
        "requests": [],
    }
    net, _ = instance_from_dict(data)
    assert net.cpu_capacity[0] == Fraction(3, 2)
    assert net.bw_capacity[(0, 1)] == Fraction(1, 10)


def test_round_trip_keeps_ids_and_quantities():
    from pcvne.generators import RequestSpec, SubstrateSpec, gen_requests, gen_substrate

    net = gen_substrate(SubstrateSpec(n_nodes=8, topology="random", n_edges=12), 4)
    reqs = gen_requests(RequestSpec(shape="path", count=2), 5)
    for k, r in enumerate(reqs):
        r.req_id = 50 + k
    reqs.append(make_cycle_request("c", [Fraction(1, 3), 2, 3], [1, Fraction(5, 2), 1], revenue=Fraction(7, 2)))
    buf = io.StringIO()
    dump_instance(net, reqs, buf)
    buf.seek(0)
    net2, reqs2 = load_instance(buf)
    assert (net2.cpu_capacity, net2.bw_capacity) == (net.cpu_capacity, net.bw_capacity)
    assert [r.req_id for r in reqs2] == [50, 51, "c"]
    for a, b in zip(reqs, reqs2):
        assert (a.shape, a.vns, a.vls, a.revenue) == (b.shape, b.vns, b.vls, b.revenue)
        assert (a.cpu_demand, a.bw_demand) == (b.cpu_demand, b.bw_demand)


def test_loaded_links_keep_their_id_types_and_dump_back_byte_for_byte():
    # (1.0, 2.0) == (1, 2) == (True, 2) and (-0.0, 1) == (0.0, 1) as dict
    # keys: a link shared by equality alone would load, and dump, the id
    # type of the first request that held it
    def path(rid, u, v):
        return {"id": rid, "shape": "path", "vns": [{"id": u, "cpu": 1}, {"id": v, "cpu": 1}],
                "vls": [{"u": u, "v": v, "bw": 1}], "revenue": 1}
    links = [(1.0, 2.0), (1, 2), (True, 2), (-0.0, 1), (0.0, 1), (1, 2)]
    data = {"nodes": [{"id": 0, "cpu": 5}, {"id": 1, "cpu": 5}], "edges": [{"u": 0, "v": 1, "bw": 5}],
            "requests": [path(f"r{i}", u, v) for i, (u, v) in enumerate(links)]}
    text = io.StringIO()
    dump_json(data, text)
    net, reqs = load_instance(io.StringIO(text.getvalue()))
    assert [repr(r.vls) for r in reqs] == [repr([k]) for k in links]
    assert [repr(list(r.bw_demand)) for r in reqs] == [repr([k]) for k in links]
    assert reqs[1].vls[0] is reqs[5].vls[0]  # the one link with int ends is shared
    out = io.StringIO()
    dump_instance(net, reqs, out)
    assert out.getvalue() == text.getvalue()


def _two_nodes(**request):
    return {
        "nodes": [{"id": 0, "cpu": 5}, {"id": 1, "cpu": 5}],
        "edges": [{"u": 0, "v": 1, "bw": 5}],
        "requests": [{"shape": "path", "vns": [{"id": 0, "cpu": 1}, {"id": 1, "cpu": 1}],
                      "vls": [{"u": 0, "v": 1, "bw": 1}], **request}],
    }


def _with_row(path, row):
    """`_two_nodes()` with the row at `path` replaced by `row`."""
    data = _two_nodes()
    obj = data
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = row
    return data


@pytest.mark.parametrize("data, field", [
    ({**_two_nodes(), "nodes": [{"id": 0, "cpu": float("inf")}, {"id": 1, "cpu": 5}]}, "nodes[0].cpu"),
    ({**_two_nodes(), "nodes": [{"id": [0], "cpu": 5}, {"id": 1, "cpu": 5}]}, "nodes[0].id"),
    ({**_two_nodes(), "edges": {"u": 0, "v": 1}}, "instance.edges"),
    (_two_nodes(shape="ring"), "requests[0].shape"),
    (_two_nodes(revenue="1/0"), "requests[0].revenue"),
    # an empty object or string iterates like an empty list; none may load as one
    *(({**_two_nodes(), key: empty}, f"instance.{key}: expected a list, got {type(empty).__name__}")
      for key in ("nodes", "edges", "requests") for empty in ({}, "")),
    # a one-VN path request without VLs is valid, so vls {} would load as []
    (_two_nodes(vns=[{"id": 0, "cpu": 1}], vls={}), "requests[0].vls: expected a list, got dict"),
    # the whole message: an unknown shape, an unhashable one
    (_two_nodes(shape="ring"), "requests[0].shape: unknown shape 'ring'"),
    (_two_nodes(shape=[]), "requests[0].shape: unknown shape []"),
    # a row that is a list or a string instead of an object
    *((_with_row(path, row), f"{where}: expected an object, got {type(row).__name__}")
      for path, where in [(("nodes", 1), "instance.nodes[1]"), (("edges", 0), "instance.edges[0]"),
                          (("requests", 0), "requests[0]"), (("requests", 0, "vns", 1), "requests[0].vns[1]"),
                          (("requests", 0, "vls", 0), "requests[0].vls[0]")]
      for row in ([0, 1], "row")),
])
def test_malformed_fields_are_named(data, field):
    with pytest.raises(InstanceFormatError, match=re.escape(field)):
        instance_from_dict(data)


def test_mixed_id_types_and_bad_json_are_model_errors():
    data = {"nodes": [{"id": 0, "cpu": 5}, {"id": "a", "cpu": 5}],
            "edges": [{"u": 0, "v": "a", "bw": 5}]}
    with pytest.raises(ModelError):
        instance_from_dict(data)
    with pytest.raises(InstanceFormatError):
        load_instance(io.StringIO('{"nodes": ['))


def _tuple_vn_request():
    a, b = ("v", 0), ("v", 1)
    return VirtualRequest(req_id=0, shape=Shape.PATH, vns=[a, b], vls=[(a, b)],
                          cpu_demand={a: 1, b: 1}, bw_demand={(a, b): 1})


def _fraction_end_request():
    return VirtualRequest(req_id=0, shape=Shape.PATH, vns=[0, 1], vls=[(Fraction(0), 1)],
                          cpu_demand={0: 1, 1: 1}, bw_demand={(0, 1): 1})


def _edp_instance():
    red = gen_edp_reduction([0, 1, 2], [(0, 1), (1, 2)], [(0, 2)])  # SNs ("n", v), ("c", v)
    return red.net, red.requests


@pytest.mark.parametrize("instance, field", [
    # JSON would write each tuple as a list, which loading refuses
    (_edp_instance, "instance.nodes[0].id"),
    (lambda: (make_net([0, 1], [(0, 1)], 5, 5), [make_path_request(("r", 1), [1, 1], [1])]), "requests[0].id"),
    (lambda: (make_net([0, 1], [(0, 1)], 5, 5), [_tuple_vn_request()]), "requests[0].vns[0].id"),
])
def test_dump_refuses_ids_json_cannot_hold(instance, field):
    net, requests = instance()
    fp = io.StringIO()
    with pytest.raises(InstanceFormatError, match=re.escape(f"{field}: expected a scalar id, got tuple")):
        dump_instance(net, requests, fp)
    assert fp.getvalue() == ""


def test_dump_refuses_a_link_end_json_cannot_encode():
    # a link end equal to its VN id is kept as given; JSON cannot encode this
    # one, and the check of the dict names it before anything is written
    fp = io.StringIO()
    with pytest.raises(InstanceFormatError, match=re.escape("requests[0].vls[0].u: expected a scalar id, got Fraction")):
        dump_instance(make_net([0, 1], [(0, 1)], 5, 5), [_fraction_end_request()], fp)
    assert fp.getvalue() == ""


class _Sn(enum.IntEnum):
    A = 0
    B = 1


class _Name(str):
    pass


def test_dump_of_scalar_subclass_ids_writes_the_dict_and_loads_back_equal():
    # ids that are scalars but not of an exact JSON type: the dict is checked
    # for a defect, finds none, and the rows are written as any others
    net = make_net([_Sn.A, _Sn.B, 2], [(_Sn.A, _Sn.B), (_Sn.B, 2)], {_Sn.A: 3, _Sn.B: Fraction(5, 2), 2: 4}, 6)
    reqs = [make_path_request(_Name("r"), [1, 2], [3]), make_cycle_request(_Name("c"), [1, 1, 1], [2, 2, 2])]
    buf, want = io.StringIO(), io.StringIO()
    dump_instance(net, reqs, buf)
    dump_json(instance_to_dict(net, reqs), want)
    assert buf.getvalue() == want.getvalue()
    net2, reqs2 = load_instance(io.StringIO(buf.getvalue()))
    assert (net2.nodes, net2.edges) == (net.nodes, net.edges)
    assert (net2.cpu_capacity, net2.bw_capacity) == (net.cpu_capacity, net.bw_capacity)
    for a, b in zip(reqs, reqs2, strict=True):
        assert (a.req_id, a.shape, a.vns, a.vls, a.revenue) == (b.req_id, b.shape, b.vns, b.vls, b.revenue)
        assert (a.cpu_demand, a.bw_demand) == (b.cpu_demand, b.bw_demand)


def _both_dumps(net, reqs):
    """The text of `dump_instance`, and that of `dump_json` on the dict."""
    got, want = io.StringIO(), io.StringIO()
    dump_instance(net, reqs, got)
    dump_json(instance_to_dict(net, reqs), want)
    return got.getvalue(), want.getvalue()


_ESCAPED = sorted(['q"', "b\\", "n\n", "é€", "\ud800"])  # sorted, so each link's ends ascend


def _string_instance():
    net = make_net(_ESCAPED, list(zip(_ESCAPED, _ESCAPED[1:])), 5, 5)
    req = VirtualRequest(req_id='"\\\né\ud800', shape=Shape.PATH, vns=_ESCAPED,
                         vls=list(zip(_ESCAPED, _ESCAPED[1:])), cpu_demand=dict.fromkeys(_ESCAPED, 1),
                         bw_demand=dict.fromkeys(zip(_ESCAPED, _ESCAPED[1:]), 1))
    return net, [req]


class _Units(int):
    """An int whose str is not its JSON, as an IntEnum member's is on Python 3.10."""

    def __str__(self):
        return f"{int(self)} units"


def _subclass_instance():
    net = make_net([_Sn.A, _Sn.B, _Units(2)], [(_Sn.A, _Sn.B), (_Sn.B, _Units(2))],
                   {_Sn.A: _Sn.B, _Sn.B: _Units(2), 2: 4}, 6)
    req = VirtualRequest(req_id=_Name("r"), shape=Shape.PATH, vns=[_Sn.A, _Sn.B], vls=[(_Sn.A, _Sn.B)],
                         cpu_demand={_Sn.A: 1, _Sn.B: _Sn.B}, bw_demand={(_Sn.A, _Sn.B): _Units(3)},
                         revenue=_Units(4))
    return net, [req, make_cycle_request(_Name("c"), [1, 1, 1], [2, 2, 2])]


@pytest.mark.parametrize("instance", [
    # request ids of the JSON scalar types other than int and str
    lambda: (make_net([0, 1], [(0, 1)], 5, 5),
             [make_path_request(rid, [1, 1], [1]) for rid in (2.5, -0.0, 1e300, True, None)]),
    _string_instance,
    # int-subclass ids and quantities, IntEnum ones included, and str-subclass ids
    _subclass_instance,
    lambda: (make_net([0, 1], [(0, 1)], {0: Fraction(5, 2), 1: "7/3"}, {(0, 1): Fraction(4, 2)}),
             [make_path_request("r", [Fraction(1, 3), "9/4"], ["1/2"], revenue=Fraction(7, 2))]),
    lambda: (make_net([0, 1], [(0, 1)], 5, 5), []),
])
def test_dump_writes_the_dicts_json_byte_for_byte(instance):
    got, want = _both_dumps(*instance())
    assert got == want


def test_dump_builds_the_dict_only_to_name_a_defect(monkeypatch):
    calls = []
    monkeypatch.setattr(jsonio, "instance_to_dict", lambda *args: calls.append(args) or instance_to_dict(*args))
    net = make_net([0, 1], [(0, 1)], 5, 5)
    fp = io.StringIO()
    dump_instance(net, [make_path_request(rid, [1, 1], [1]) for rid in ("r", 2.5, None)], fp)
    assert calls == []
    assert len(fp.getvalue().splitlines()) == 12
    fp = io.StringIO()
    with pytest.raises(InstanceFormatError, match=re.escape("requests[0].id: expected a scalar id, got tuple")):
        dump_instance(net, [make_path_request(("r", 1), [1, 1], [1])], fp)
    assert len(calls) == 1
    assert fp.getvalue() == ""


def _int_instance():
    return make_net([0, 1, 2], [(0, 1), (1, 2)], 5, 5), [make_path_request(k, [1, 2, 3], [4, 5]) for k in range(3)]


def _one_fraction_quantity():
    net, reqs = _int_instance()
    reqs[1].bw_demand[(0, 1)] = Fraction(9, 2)
    return net, reqs


def _one_string_id():
    net, reqs = _int_instance()
    return net, [*reqs, make_path_request("r", [1, 1], [1])]


def _one_bool_id():
    return make_net([True, 2], [(True, 2)], 5, 5), _int_instance()[1]


@pytest.mark.parametrize("instance, by_text, by_q_text", [
    (_int_instance, False, False),
    (_one_fraction_quantity, False, True),
    (_one_string_id, True, False),
    (_one_bool_id, True, False),
])
def test_dump_formats_through_str_only_where_every_type_is_int(monkeypatch, instance, by_text, by_q_text):
    # one non-int id sends every id through `_text`, one non-int quantity
    # every quantity through `_q_text`; the text is the dict's either way
    calls = []
    for name in ("_text", "_q_text"):
        real = getattr(jsonio, name)
        monkeypatch.setattr(jsonio, name, lambda x, name=name, real=real: calls.append(name) or real(x))
    got, want = _both_dumps(*instance())
    assert got == want
    assert ("_text" in calls, "_q_text" in calls) == (by_text, by_q_text)


def test_dump_of_a_bool_quantity_raises_as_the_dicts_does():
    # set after the model checked it; neither writer may print it as true or 1
    net, reqs = _int_instance()
    reqs[2].revenue = True
    for write in (lambda fp: dump_instance(net, reqs, fp), lambda fp: dump_json(instance_to_dict(net, reqs), fp)):
        fp = io.StringIO()
        with pytest.raises(ModelError, match="bool is not a quantity: True"):
            write(fp)
        assert fp.getvalue() == ""


def test_request_ids_default_to_index():
    data = {
        "nodes": [{"id": 0, "cpu": 5}, {"id": 1, "cpu": 5}],
        "edges": [{"u": 0, "v": 1, "bw": 5}],
        "requests": [
            {"shape": "path",
             "vns": [{"id": 0, "cpu": 1}, {"id": 1, "cpu": 1}],
             "vls": [{"u": 0, "v": 1, "bw": 1}],
             "revenue": 1},
        ],
    }
    _, reqs = instance_from_dict(data)
    assert reqs[0].req_id == 0



@pytest.mark.parametrize("ids, message", [
    ([0, 0], "requests[1].id: duplicate id 0"),
    (["r", 5, "r"], "requests[2].id: duplicate id 'r'"),
    ([1, None], "requests[1].id: duplicate id 1"),  # the missing id defaults to index 1
])
def test_repeated_request_ids_are_refused(ids, message):
    data = _two_nodes()
    template = data["requests"].pop()
    for req_id in ids:
        data["requests"].append(template if req_id is None else {**template, "id": req_id})
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        instance_from_dict(data)


quantities = st.one_of(
    st.integers(min_value=0, max_value=10 ** 9),
    st.fractions(min_value=0, max_value=10 ** 6),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(quantities, min_size=2, max_size=6), quantities)
def test_property_quantities_round_trip_exactly(cpus, bw):
    nodes = list(range(len(cpus)))
    edges = [(i, i + 1) for i in range(len(cpus) - 1)]
    net = make_net(nodes, edges, {i: c for i, c in enumerate(cpus)}, bw)
    buf = io.StringIO()
    dump_instance(net, [], buf)
    buf.seek(0)
    net2, _ = load_instance(buf)
    assert net2.cpu_capacity == net.cpu_capacity
    assert net2.bw_capacity == net.bw_capacity


def test_embedding_dict_is_json_serializable():
    from pcvne.model import Embedding

    req = make_path_request("r", [1, 1], [1], revenue=2)
    emb = Embedding({0: 10, 1: 11}, {(0, 1): [(10, 11)]})
    payload = embedding_to_dict(req, emb)
    text = json.dumps(payload)
    assert json.loads(text)["request"] == "r"


def test_dump_is_one_entry_per_line_json():
    net = make_net([0, 1, 2], [(0, 1), (1, 2)], {0: 3, 1: Fraction(9, 2), 2: 5}, 7)
    reqs = [make_path_request("a", [1, 2], [3]), make_cycle_request(4, [1, 1, 1], [2, 2, 2])]
    buf = io.StringIO()
    dump_instance(net, reqs, buf)
    text = buf.getvalue()
    assert json.loads(text) == instance_to_dict(net, reqs)
    assert text.endswith("]}\n")
    assert len(text.splitlines()) == 2 * 3 + len(net.nodes) + len(net.edges) + len(reqs)


def test_indented_files_still_load():
    net = make_net([0, 1, 2], [(0, 1), (1, 2)], {0: 3, 1: Fraction(9, 2), 2: 5}, 7)
    reqs = [make_path_request("a", [1, 2], [Fraction(1, 3)], revenue=2)]
    text = json.dumps(instance_to_dict(net, reqs), indent=2) + "\n"
    net2, reqs2 = load_instance(io.StringIO(text))
    assert instance_to_dict(net2, reqs2) == instance_to_dict(net, reqs)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(json_values), st.dictionaries(st.text(), json_values)))
def test_property_dump_json_loads_back_one_entry_per_line(obj):
    # st.text() holds newlines and non-ASCII; json.dumps escapes both, so
    # every entry and every key keeps to one line
    buf = io.StringIO()
    dump_json(obj, buf)
    text = buf.getvalue()
    assert json.loads(text) == obj
    if isinstance(obj, list):
        assert text.count("\n") == (len(obj) + 2 if obj else 1)
    else:
        lines = [len(v) + 2 if isinstance(v, list) and v else 1 for v in obj.values()]
        assert text.count("\n") == max(sum(lines), 1)


@pytest.mark.parametrize("obj, text", [
    ([], "[]\n"),
    ({"requests": []}, '{"requests": []}\n'),
    ({"a": [1, 2], "b": []}, '{"a": [\n1,\n2\n],\n"b": []}\n'),
])
def test_empty_list_is_written_without_a_blank_line(obj, text):
    buf = io.StringIO()
    dump_json(obj, buf)
    assert buf.getvalue() == text
    assert json.loads(text) == obj


def test_instance_without_requests_ends_in_an_empty_list():
    net = make_net([0, 1], [(0, 1)], 3, 7)
    buf = io.StringIO()
    dump_instance(net, [], buf)
    assert buf.getvalue().endswith('"requests": []}\n')
    buf.seek(0)
    net2, reqs2 = load_instance(buf)
    assert instance_to_dict(net2, reqs2) == instance_to_dict(net, [])


positive = st.one_of(
    st.integers(min_value=1, max_value=10 ** 9),
    st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6),
    st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6).map(
        lambda q: f"{q.numerator}/{q.denominator}"),
)
scalar_ids = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.text(max_size=4))


@st.composite
def instances(draw):
    """A small valid instance: int or string node ids (one kind per
    instance, so they compare), int/Fraction/"p/q" quantities, path and
    cycle requests with distinct ids of mixed types."""
    id_kind = draw(st.sampled_from((st.integers(-50, 50), st.text(min_size=1, max_size=3))))
    nodes = draw(st.lists(id_kind, min_size=2, max_size=5, unique=True))
    edges = [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
    if len(nodes) > 2 and draw(st.booleans()):
        edges.append((nodes[0], nodes[-1]))
    net = make_net(nodes, edges, {v: draw(positive) for v in nodes},
                   {tuple(sorted(e)): draw(positive) for e in edges})
    reqs = []
    for req_id in draw(st.lists(scalar_ids, max_size=3, unique=True)):
        shape = draw(st.sampled_from((Shape.PATH, Shape.CYCLE)))
        vns = draw(st.lists(id_kind, min_size=3 if shape is Shape.CYCLE else 1, max_size=4, unique=True))
        vls = [(vns[i], vns[i + 1]) for i in range(len(vns) - 1)]
        if shape is Shape.CYCLE:
            vls.append((vns[-1], vns[0]))
        reqs.append(VirtualRequest(
            req_id=req_id, shape=shape, vns=vns, vls=vls,
            cpu_demand={v: draw(positive) for v in vns},
            bw_demand={tuple(sorted(l)): draw(positive) for l in vls},
            revenue=draw(st.one_of(st.just(0), positive))))
    return net, reqs


def _exact(mapping):
    """Values with their types, so 2 and Fraction(2) would differ."""
    return {k: (type(v), v) for k, v in mapping.items()}


@settings(max_examples=150, deadline=None)
@given(instances())
def test_property_dump_load_keeps_ids_and_quantities(instance):
    net, reqs = instance
    dumped, want = _both_dumps(net, reqs)
    assert dumped == want  # byte for byte
    assert json.loads(dumped) == instance_to_dict(net, reqs)
    indented = json.dumps(instance_to_dict(net, reqs), indent=2)
    for text in (dumped, indented):
        net2, reqs2 = load_instance(io.StringIO(text))
        assert (net2.nodes, net2.edges) == (net.nodes, net.edges)
        assert _exact(net2.cpu_capacity) == _exact(net.cpu_capacity)
        assert _exact(net2.bw_capacity) == _exact(net.bw_capacity)
        assert [r.req_id for r in reqs2] == [r.req_id for r in reqs]
        for a, b in zip(reqs, reqs2):
            assert (a.shape, a.vns, a.vls) == (b.shape, b.vns, b.vls)
            assert _exact(a.cpu_demand) == _exact(b.cpu_demand)
            assert _exact(a.bw_demand) == _exact(b.bw_demand)
            assert _exact({"revenue": a.revenue}) == _exact({"revenue": b.revenue})


def _paths(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


REPLACEMENTS = ([], [1], {}, {"id": 0}, None, "abc", float("nan"), True)


@settings(max_examples=300, deadline=None)
@given(instances(), st.data())
def test_property_single_mutation_is_valid_or_model_error(instance, data):
    original = instance_to_dict(*instance)
    path = data.draw(st.sampled_from(list(_paths(original))))
    action = data.draw(st.sampled_from(("drop",) + REPLACEMENTS) if path else st.sampled_from(REPLACEMENTS))
    mutated = copy.deepcopy(original)
    if not path:
        mutated = action
    else:
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        if action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = action
    try:
        instance_from_dict(mutated)
    except ModelError:
        pass
