"""Canonical instance JSON and the one JSON writer.

    {"nodes":    [{"id": ..., "cpu": ...}, ...],
     "edges":    [{"u": ..., "v": ..., "bw": ...}, ...],
     "requests": [{"id": ..., "shape": "path"|"cycle"|"general",
                   "vns": [{"id": ..., "cpu": ...}, ...],
                   "vls": [{"u": ..., "v": ..., "bw": ...}, ...],
                   "revenue": ...}, ...]}

Quantities may be ints, decimal floats, or "p/q" strings; non-integer values
round-trip exactly as fractions (written back as "p/q"). A request without
an "id" gets its index; request ids must be distinct. Malformed data raises
InstanceFormatError, whose message names the offending field. A loaded
request owns its `vls` list, while its links are immutable tuples that
requests share: one per distinct link with int ends.
`dump_instance` writes each row from the model objects through three row
templates (node or VN, edge or VL, request); `instance_to_dict` builds the
same data as a dict only where a defect in an id must be named.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

from .model import ModelError, Shape, SubstrateNetwork, VirtualRequest, as_quantity


class InstanceFormatError(ModelError):
    """Instance data that does not follow the format above."""


def _q_out(x):
    if type(x) is int:
        return x
    q = as_quantity(x)
    return q if isinstance(q, int) else str(q)


def instance_to_dict(net, requests):
    """The instance as the dict that `dump_instance` writes, row for row.
    `dump_instance` builds it only for `_name_defect`, never to write it."""
    cpu, bw = net.cpu_capacity, net.bw_capacity
    return {
        "nodes": [{"id": v, "cpu": _q_out(cpu[v])} for v in net.nodes],
        "edges": [{"u": u, "v": v, "bw": _q_out(bw[(u, v)])} for u, v in net.edges],
        "requests": [{"id": r.req_id, "shape": r.shape.value,
                      "vns": [{"id": v, "cpu": _q_out(r.cpu_demand[v])} for v in r.vns],
                      "vls": [{"u": u, "v": v, "bw": _q_out(r.bw_demand[(u, v)])} for u, v in r.vls],
                      "revenue": _q_out(r.revenue)} for r in requests],
    }


def instance_from_dict(data):
    try:
        return _parse_instance(data)
    except (AttributeError, KeyError, TypeError, ValueError):  # ModelError is a ValueError
        _name_defect(data)
        raise


def _parse_instance(data):
    """The instance in `data`, read in one pass. Equal links with exact int
    ends share one tuple; others are a tuple each. A field defect raises a
    lookup or type error here, which `_name_defect` then names."""
    node_list, edge_list = _list(data, "nodes", "instance"), _list(data, "edges", "instance")
    nodes, edges = list(map(_ID, node_list)), list(map(_ENDS, edge_list))
    net = SubstrateNetwork(nodes, edges, dict(zip(nodes, map(_CPU, node_list))),
                           dict(zip(edges, map(_BW, edge_list))))
    requests, seen, shared = [], set(), {}  # shared: each int link's first tuple
    for i, r in enumerate(_list(data, "requests", "instance", [])):
        if not isinstance(r, dict):  # this test and the next are those of `_id` and `_list`
            raise TypeError
        req_id, vns, vls = r.get("id", i), r["vns"], r["vls"]
        if not (isinstance(req_id, _SCALARS) and isinstance(vns, list) and isinstance(vls, list)):
            raise TypeError
        if req_id in seen:
            raise InstanceFormatError(f"requests[{i}].id: duplicate id {req_id!r}")
        seen.add(req_id)
        links = [shared.setdefault(k, k) if type(k[0]) is type(k[1]) is int else k
                 for k in map(_ENDS, vls)]  # 1.0 == True == 1 as keys
        ids = list(map(_ID, vns))
        try:
            requests.append(VirtualRequest(
                req_id, _SHAPES[r["shape"]], ids, links, dict(zip(ids, map(_CPU, vns))),
                dict(zip(links, map(_BW, vls))), r.get("revenue", 1)))
        except ModelError as exc:  # a field defect still takes precedence, by `_name_defect`
            raise ModelError(f"requests[{i}]: {exc}") from None
    return net, requests


_REQUIRED = object()
_SCALARS = (str, int, float, bool, type(None))  # the ids JSON holds as they are
_ID, _ENDS, _CPU, _BW = itemgetter("id"), itemgetter("u", "v"), itemgetter("cpu"), itemgetter("bw")
_SHAPES = {s.value: s for s in Shape}  # an unknown shape is a KeyError, an unhashable one a TypeError


def _field(obj, key, where, default=_REQUIRED):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise InstanceFormatError(f"{where}: missing field {key!r}")
    return default


def _list(obj, key, where, default=_REQUIRED):
    x = _field(obj, key, where, default)
    if not isinstance(x, list):
        raise InstanceFormatError(f"{where}.{key}: expected a list, got {type(x).__name__}")
    return x


def _id(obj, key, where, default=_REQUIRED):
    x = _field(obj, key, where, default)
    if not isinstance(x, _SCALARS):
        raise InstanceFormatError(f"{where}.{key}: expected a scalar id, got {type(x).__name__}")
    return x


def _quantity(obj, key, where, default=_REQUIRED):
    x = _field(obj, key, where, default)
    try:
        return as_quantity(x)
    except ModelError as exc:
        raise InstanceFormatError(f"{where}.{key}: {exc}") from None


def _name_defect(data):
    """Raise InstanceFormatError naming the first field of `data` that breaks
    the format above; return if every field follows it."""
    _check_entries(data, "nodes", "instance", ("id", "cpu"))
    _check_entries(data, "edges", "instance", ("u", "v", "bw"))
    for i, r in enumerate(_list(data, "requests", "instance", [])):
        where = f"requests[{i}]"
        _id(r, "id", where, i)
        if _field(r, "shape", where) not in [s.value for s in Shape]:
            raise InstanceFormatError(f"{where}.shape: unknown shape {r['shape']!r}")
        _check_entries(r, "vns", where, ("id", "cpu"))
        _check_entries(r, "vls", where, ("u", "v", "bw"))
        _quantity(r, "revenue", where, 1)


def _check_entries(obj, key, where, fields):
    """Each entry of the list obj[key] is an object with scalar ids and a
    quantity as its last field."""
    for k, entry in enumerate(_list(obj, key, where)):
        at = f"{where}.{key}[{k}]"
        for field in fields[:-1]:
            _id(entry, field, at)
        _quantity(entry, fields[-1], at)


def dump_instance(net, requests, fp):
    """Write the instance row by row from the model, one node, edge or request
    per line, in one `fp.write`; the text equals `dump_json(instance_to_dict(
    net, requests))` byte for byte. Ids must be scalars: `_name_defect` checks
    `instance_to_dict` first only when an id's type is not exactly a JSON
    scalar, so a tuple id, which would load back as a list, raises before
    anything is written. Ids, and quantities, that are all exactly `int`
    format through the builtin `str`; otherwise through `_text` / `_q_text`."""
    types = set(map(type, chain(net.nodes, *net.edges)))
    q_types = set(map(type, chain(net.cpu_capacity.values(), net.bw_capacity.values())))
    for r in requests:
        types.update(map(type, chain((r.req_id,), r.vns, *r.vls)))
        q_types.update(map(type, chain((r.revenue,), r.cpu_demand.values(), r.bw_demand.values())))
    if not types.issubset(_SCALARS):  # exact types; `_id` lets subclasses pass
        _name_defect(instance_to_dict(net, requests))
    text, q_text = (str if types <= {int} else _text), (str if q_types <= {int} else _q_text)
    rows = [f'{{"id": {text(r.req_id)}, "shape": "{r.shape.value}", '
            f'"vns": [{", ".join(_vn_rows(r.vns, r.cpu_demand, text, q_text))}], '
            f'"vls": [{", ".join(_vl_rows(r.vls, r.bw_demand, text, q_text))}], "revenue": {q_text(r.revenue)}}}'
            for r in requests]
    fp.write(f'{{"nodes": {_block(_vn_rows(net.nodes, net.cpu_capacity, text, q_text))},\n'
             f'"edges": {_block(_vl_rows(net.edges, net.bw_capacity, text, q_text))},\n"requests": {_block(rows)}}}\n')


def _text(x):
    """`json.dumps(x)` for a scalar; `str` only for an exact int, since that
    of an IntEnum or a bool is not its JSON."""
    return str(x) if type(x) is int else json.dumps(x)


def _q_text(x):
    return str(x) if type(x) is int else json.dumps(_q_out(x))


def _vn_rows(ids, cpu, text, q_text):
    return [f'{{"id": {text(v)}, "cpu": {q_text(cpu[v])}}}' for v in ids]


def _vl_rows(links, bw, text, q_text):
    return [f'{{"u": {text(u)}, "v": {text(v)}, "bw": {q_text(bw[(u, v)])}}}' for u, v in links]


def _block(rows):
    """A list of JSON texts as one JSON list, one entry per line."""
    return "[\n" + ",\n".join(rows) + "\n]" if rows else "[]"


def dump_json(obj, fp):
    """Write `obj` as JSON by json.dumps alone, which keeps to the C encoder
    (an indented dump would not). A non-empty list takes one entry per line;
    a dict one key per line, where a list value does too and any other value
    stays on its key's line. Any JSON layout loads back the same."""
    def block(x):
        return _block(list(map(json.dumps, x))) if isinstance(x, list) else json.dumps(x)
    if isinstance(obj, dict):
        fp.write("{" + ",\n".join(f"{json.dumps(k)}: {block(v)}" for k, v in obj.items()) + "}\n")
    else:
        fp.write(block(obj) + "\n")


def load_instance(fp):
    try:
        data = json.load(fp)
    except (ValueError, RecursionError) as exc:  # ValueError covers bad JSON, bad UTF-8 and huge ints
        raise InstanceFormatError(f"not JSON: {exc}") from None
    return instance_from_dict(data)


def embedding_to_dict(req, emb):
    return {
        "request": req.req_id,
        "nodes": [{"vn": vn, "sn": sn} for vn, sn in emb.node_map.items()],
        "links": [{"u": u, "v": v, "path": [list(e) for e in path]}
                  for (u, v), path in emb.link_map.items()],
        "revenue": _q_out(req.revenue),
    }
