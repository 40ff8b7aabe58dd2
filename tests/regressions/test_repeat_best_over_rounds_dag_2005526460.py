"""Auto-generated checkkit reproducer (see docs/testing.md)."""

from repro.checkkit.shrink import replay_json

REPRODUCER = r'''
{
  "checkkit_reproducer": 1,
  "deadline": 11,
  "edges": [
    [
      "v0",
      "v2",
      0
    ],
    [
      "v0",
      "v5",
      0
    ],
    [
      "v0",
      "v7",
      0
    ],
    [
      "v2",
      "v5",
      0
    ],
    [
      "v2",
      "v6",
      0
    ],
    [
      "v2",
      "v7",
      0
    ],
    [
      "v5",
      "v6",
      0
    ],
    [
      "v5",
      "v7",
      0
    ]
  ],
  "message": "repeat 60.0 worse than once 58.0 on a shared expansion (fuzz seed 2004, instance #192; fixed by best-over-rounds tracking in dfg_assign_repeat)",
  "nodes": [
    [
      "v0",
      "cmp"
    ],
    [
      "v2",
      "mul"
    ],
    [
      "v5",
      "mul"
    ],
    [
      "v6",
      "mul"
    ],
    [
      "v7",
      "add"
    ]
  ],
  "oracles": [
    "portfolio",
    "ordering",
    "reference"
  ],
  "relations": [],
  "rows": {
    "v0": {
      "costs": [
        11.0,
        9.0,
        5.0
      ],
      "times": [
        2,
        5,
        8
      ]
    },
    "v2": {
      "costs": [
        9.0,
        5.0,
        2.0
      ],
      "times": [
        3,
        6,
        7
      ]
    },
    "v5": {
      "costs": [
        13.0,
        12.0,
        4.0
      ],
      "times": [
        2,
        4,
        7
      ]
    },
    "v6": {
      "costs": [
        10.0,
        7.0,
        4.0
      ],
      "times": [
        1,
        3,
        5
      ]
    },
    "v7": {
      "costs": [
        18.0,
        9.0,
        5.0
      ],
      "times": [
        2,
        5,
        7
      ]
    }
  },
  "seed": 2005526460,
  "spec": "dag"
}
'''

def test_repeat_never_worse_than_once_dag_2005526460():
    assert replay_json(REPRODUCER)
