//! The join family's inputs: two four-column tables, `l` and `r`, and
//! one round of changes to each — multi-row inserts, deletes,
//! condition-free and condition-touching updates, NULL join keys among
//! them. Shared by path by the suites that pin the join family's rules.

use idivm_reldb::Database;
use idivm_types::{ColumnType, Key, Row, Schema, Value};

/// NULL in the row literals below.
pub const N: i64 = i64::MIN;

/// One input, `(id, key, cond, payload)`: `key` is the join column,
/// `cond` the residual's, `payload` read by no condition.
pub struct Input {
    pub name: &'static str,
    pub cols: [&'static str; 4],
    pub before: &'static [[i64; 4]],
    pub inserts: &'static [[i64; 4]],
    pub deletes: &'static [i64],
    /// `(id, payload)`: condition-free updates.
    pub free: &'static [(i64, i64)],
    /// `(id, key, cond)`: condition-touching updates.
    pub touch: &'static [(i64, i64, i64)],
}

pub const LEFT: Input = Input {
    name: "l",
    cols: ["id", "a", "v", "p"],
    before: &[
        [1, 1, 10, 0],
        [2, 1, 50, 0],
        [3, 2, 20, 0],
        [4, N, 30, 0],
        [5, 3, 40, 0],
        [6, 2, 60, 0],
        [7, 4, 5, 0],
        [8, N, 15, 0],
        [9, 5, 25, 0],
        [10, 3, 35, 0],
        [11, 6, 45, 0],
        [12, 6, 55, 0],
        [13, N, 12, 0],
    ],
    inserts: &[[20, 2, 15, 0], [21, N, 5, 0], [22, 9, 1, 0], [23, 1, 99, 0]],
    deletes: &[3, 4, 7],
    free: &[(1, 7), (5, 7), (8, 7)],
    touch: &[(2, 2, 50), (6, N, 60), (9, 3, 25), (10, 3, 1), (13, 6, 12)],
};

pub const RIGHT: Input = Input {
    name: "r",
    cols: ["id", "b", "w", "q"],
    before: &[
        [100, 1, 30, 0],
        [101, 2, 10, 0],
        [102, 2, 70, 0],
        [103, N, 20, 0],
        [104, 3, 50, 0],
        [105, 4, 1, 0],
        [106, 5, 100, 0],
        [107, N, 40, 0],
        [108, 6, 50, 0],
        [109, 7, 20, 0],
    ],
    inserts: &[
        [110, 2, 90, 0],
        [111, N, 5, 0],
        [112, 5, 1, 0],
        [113, 8, 10, 0],
        [114, 6, 10, 0],
    ],
    deletes: &[100, 103, 106],
    free: &[(101, 7), (107, 7), (108, 7)],
    touch: &[(102, 3, 70), (104, N, 50), (105, 4, 100), (109, 4, 20)],
};

pub fn row(vals: &[i64]) -> Row {
    vals.iter()
        .map(|&v| if v == N { Value::Null } else { Value::Int(v) })
        .collect()
}

pub fn int(v: i64) -> Value {
    row(&[v])[0].clone()
}

pub fn before(input: &Input, id: i64) -> Row {
    row(input.before.iter().find(|r| r[0] == id).unwrap())
}

/// Load both inputs, then run the round's changes to the `changed`
/// ones with logging on.
pub fn database(changed: &[&Input]) -> Database {
    let mut db = Database::new();
    db.set_logging(false);
    for input in [&LEFT, &RIGHT] {
        let cols: Vec<(&str, ColumnType)> =
            input.cols.iter().map(|&c| (c, ColumnType::Int)).collect();
        db.create_table(input.name, Schema::from_pairs(&cols, &["id"]).unwrap())
            .unwrap();
        db.table_mut(input.name)
            .unwrap()
            .create_index(&[input.cols[1]])
            .unwrap();
        for r in input.before {
            db.insert(input.name, row(r)).unwrap();
        }
    }
    db.set_logging(true);
    for input in changed {
        let [_, key, cond, payload] = input.cols;
        for r in input.inserts {
            db.insert(input.name, row(r)).unwrap();
        }
        for &id in input.deletes {
            db.delete(input.name, &Key(vec![int(id)])).unwrap();
        }
        for &(id, p) in input.free {
            db.update_named(input.name, &Key(vec![int(id)]), &[(payload, int(p))])
                .unwrap();
        }
        for &(id, k, c) in input.touch {
            let set = [(key, int(k)), (cond, int(c))];
            db.update_named(input.name, &Key(vec![int(id)]), &set)
                .unwrap();
        }
    }
    db
}
