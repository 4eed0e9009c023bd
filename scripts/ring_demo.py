#!/usr/bin/env python3
"""Walk through the ring solver on the 4-node reference instance: build the
layered auxiliary graphs for one anchor, show the minimum weight cycles per
direction, and print the chosen embedding."""

import json

from pcvne.cycle_embedding import CycleView, build_wdag, c2ce, min_weight_cycle
from pcvne.model import SubstrateNetwork, VirtualRequest, edge_key


def reference_instance():
    net = SubstrateNetwork(
        nodes=[0, 1, 2, 3],
        edges=[(0, 1), (1, 2), (2, 3), (3, 0)],
        cpu_capacity={0: 5, 1: 5, 2: 1, 3: 4},
        bw_capacity={(0, 1): 2, (1, 2): 3, (2, 3): 3, (0, 3): 3},
    )
    req = VirtualRequest(
        req_id="triangle", shape="cycle", vns=["a", "b", "c"],
        vls=[("a", "b"), ("b", "c"), ("c", "a")],
        cpu_demand={"a": 5, "b": 5, "c": 2},
        bw_demand={edge_key("a", "b"): 1, edge_key("b", "c"): 2, edge_key("a", "c"): 3},
    )
    return net, req


def main():
    net, req = reference_instance()
    cycle = CycleView(net)
    for direction in ("+", "-"):
        w = build_wdag(cycle, req, 0, direction)
        print(f"auxiliary graph anchored at node 0, direction {direction}:")
        print(json.dumps(w.to_json(), indent=2))
        found = min_weight_cycle(w)
        print("minimum weight cycle:", found, "\n")
    emb = c2ce(net, req)
    # "+" when the first VL leaves its host by the clockwise link out of it
    start = emb.node_map[req.vns[0]]
    direction = "+" if emb.link_map[req.vls[0]][0] == cycle.links[cycle.index[start]] else "-"
    cost = sum(len(emb.link_map[vl]) * req.bw_demand[vl] for vl in req.vls)
    print(f"best embedding: direction {direction}, cost {cost}")
    print("hosts:", emb.node_map)
    print("segments:", {str(vl): emb.link_map[vl] for vl in req.vls})


if __name__ == "__main__":
    main()
