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
`dump_instance` writes the dict that `instance_to_dict` builds, in one
`dump_json` call.
"""

from __future__ import annotations

import json
from itertools import chain

from .model import ModelError, Shape, SubstrateNetwork, VirtualRequest, as_quantity


class InstanceFormatError(ModelError):
    """Instance data that does not follow the format above."""


def _q_out(x):
    if type(x) is int:
        return x
    q = as_quantity(x)
    return q if isinstance(q, int) else str(q)


def instance_to_dict(net, requests):
    cpu, bw = net.cpu_capacity, net.bw_capacity
    return {
        "nodes": [{"id": v, "cpu": _q_out(cpu[v])} for v in net.nodes],
        "edges": [{"u": u, "v": v, "bw": _q_out(bw[(u, v)])} for u, v in net.edges],
        "requests": [request_to_dict(r) for r in requests],
    }


def request_to_dict(req):
    cpu, bw = req.cpu_demand, req.bw_demand
    return {
        "id": req.req_id,
        "shape": req.shape.value,
        "vns": [{"id": v, "cpu": _q_out(cpu[v])} for v in req.vns],
        "vls": [{"u": u, "v": v, "bw": _q_out(bw[(u, v)])} for u, v in req.vls],
        "revenue": _q_out(req.revenue),
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
    nodes = [n["id"] for n in node_list]
    cpu = {n["id"]: n["cpu"] for n in node_list}
    edges = [(e["u"], e["v"]) for e in edge_list]
    bw = {(e["u"], e["v"]): e["bw"] for e in edge_list}
    net = SubstrateNetwork(nodes, edges, cpu, bw)
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
                 for k in [(l["u"], l["v"]) for l in vls]]  # 1.0 == True == 1 as keys
        try:
            requests.append(VirtualRequest(
                req_id, Shape(r["shape"]), [v["id"] for v in vns], links,
                {v["id"]: v["cpu"] for v in vns}, dict(zip(links, [l["bw"] for l in vls])),
                r.get("revenue", 1)))
        except ModelError as exc:  # a field defect still takes precedence, by `_name_defect`
            raise ModelError(f"requests[{i}]: {exc}") from None
    return net, requests


_REQUIRED = object()
_SCALARS = (str, int, float, bool, type(None))  # the ids JSON holds as they are


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
    """Write `instance_to_dict(net, requests)` by `dump_json`, one node, edge
    or request per line; ids must be scalars. `_name_defect` checks the dict
    first only when an id's type is not exactly a JSON scalar, so a tuple id,
    which would load back as a list, raises before anything is written."""
    data = instance_to_dict(net, requests)
    types = set(map(type, chain(net.nodes, *net.edges)))
    for r in requests:
        types.update(map(type, chain((r.req_id,), r.vns, *r.vls)))
    if not types.issubset(_SCALARS):  # exact types; `_id` lets subclasses pass
        _name_defect(data)
    dump_json(data, fp)


def dump_json(obj, fp):
    """Write `obj` as JSON by json.dumps alone, which keeps to the C encoder
    (an indented dump would not). A non-empty list takes one entry per line;
    a dict one key per line, where a list value does too and any other value
    stays on its key's line. Any JSON layout loads back the same."""
    def block(x):
        return "[\n" + ",\n".join(map(json.dumps, x)) + "\n]" if isinstance(x, list) and x else json.dumps(x)
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
        "request": emb.req_id,
        "nodes": [{"vn": vn, "sn": sn} for vn, sn in emb.node_map.items()],
        "links": [{"u": u, "v": v, "path": [list(e) for e in path]}
                  for (u, v), path in emb.link_map.items()],
        "revenue": _q_out(req.revenue),
    }
