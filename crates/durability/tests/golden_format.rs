//! Golden bytes of the on-disk format (`IVMWAL01` / `IVMCKP01`).
//!
//! One WAL holding a record of every variant and one checkpoint holding
//! every snapshot shape are built from literals, written through the
//! public write paths, and compared with values recorded from the
//! encoder at commit `89cec5e`. A store written by one build of this
//! crate must open under every other: an encoder or decoder change that
//! moves a single bit fails here first. Updating the expected values is
//! a format change — it needs a new magic, not a new literal.

#![allow(clippy::unwrap_used)]

mod common;

use common::{fresh_dir, no_faults};
use idivm_algebra::{AggFunc, AggSpec, BinOp, CmpOp, Expr, Plan, ScalarFn};
use idivm_durability::checkpoint::{
    IngestSnapshot, IntermediateManifest, TableSnapshot, ViewManifest,
};
use idivm_durability::{Checkpoint, RoundKind, Wal, WalRecord, CHECKPOINT_FILE};
use idivm_ingest::{DeadLetter, DeadLetterCause, IngestTotals};
use idivm_reldb::{Net, NetChange, TableChanges};
use idivm_sched::RefreshPolicy;
use idivm_types::{row, ColumnType, Key, Row, Schema, Value};
use std::collections::HashMap;

const WAL_LEN: usize = 2243;
const WAL_FNV: u64 = 0x6c04_1ce0_4a24_e4a8;
const CHECKPOINT_LEN: usize = 1169;
const CHECKPOINT_FNV: u64 = 0xf5a3_a9e1_f1fd_dec2;

/// The whole WAL image, 32 bytes a line.
const WAL_HEX: &str = "\
    49564d57414c3031ec030000bcbfb8cc72e2c6f3010000000000000001010000\n\
    0076080701060502030001000000740100000061040000000200000069640103\n\
    00000074616703010000007702020000006f6b00020000000200000069640300\n\
    0000746167000100000075010000006204000000020000006964010300000074\n\
    616703010000007702020000006f6b0002000000020000006964030000007461\n\
    6702000000000000000000000000000000000000000100000000000000010000\n\
    0000000000010302000200000000000000000600000000000000040000000200\n\
    0000696400000000000000000003000000746167000100000000000000010000\n\
    0077000200000000000000020000006f6b000300000000000000000100000075\n\
    0100000065040000000200000069640103000000746167030100000077020200\n\
    00006f6b00020000000200000069640300000074616701000000000000000000\n\
    0000000000000000000000020400010000007401000000630400000002000000\n\
    6964010300000074616703010000007702020000006f6b000200000002000000\n\
    6964030000007461670001000000750100000064040000000200000069640103\n\
    00000074616703010000007702020000006f6b00020000000200000069640300\n\
    0000746167020000000000000000000000000000000000000001000000000000\n\
    0001000000000000000001000000020000006964000000000000000000000000\n\
    0001030000000000000000000000040000000000000004040000000506000000\n\
    0300000000000000000000010207000000000000000301000100000000000000\n\
    010402000000c3a903020002000000000000000103000000000000f83f030300\n\
    0000000000000000010003040000000000000000000102fdffffffffffffff03\n\
    0500030000000000000001010106070001000000000000000300020002010000\n\
    0000000000000001020100000000000000020200000000000000000002030002\n\
    0000000000000001030000000000000040080303000000080001000000000000\n\
    0000000000000801020000000000000000000000000102050000000000000008\n\
    0402000000000000000000000000000000000000000000030108020200000000\n\
    0100000000000000000100000000000000010400000000000100000074010000\n\
    006604000000020000006964010300000074616703010000007702020000006f\n\
    6b00020000000200000069640300000074616702000000010000000000000004\n\
    0000000000000005000000000000000000000000000100000073010102010000\n\
    0000000000010000006e02000200000000000000030000006176670300000000\n\
    0000000000020000006c6f040000000000000000000200000068690103000000\n\
    0e000000e4f680e1db2713fb02000000000000000300000000000e0000009a11\n\
    6767478c1fa60300000000000000030100000000130000004113e4ed821ab018\n\
    040000000000000003020100000076000000000d040000aae25468b806d11305\n\
    00000000000000030302000000000000000100000000000000020000000f0000\n\
    00000000000b00000000000000000000000000000000000000000b0000006e6f\n\
    206f70206669656c640000030000002323230200000001000000000000000100\n\
    0000740100010100000002010000000000000009000000327c317c747ce280a6\n\
    0200000002000000000000000100000074020400000000000000010000000000\n\
    000000010100000002010000000000000009000000327c327c747ce280a60200\n\
    00000300000000000000010000007403020000000000000005000000666c6f61\n\
    7400010400000002010000000000000004010000006104010000006201010900\n\
    0000327c337c747ce280a6020000000900000000000000010000007404040000\n\
    000000000001010000000201000000000000000009000000327c397c747ce280\n\
    a60200000003000000000000000100000074050a000000000000000000090000\n\
    00327c337c747ce280a6020000000a0000000000000001000000740600010400\n\
    000002010000000000000004010000006103000000000000e03f01010a000000\n\
    327c31307c747ce280a6020000000b0000000000000001000000740701040000\n\
    0002080000000000000004010000007a03000000000000e03f0100000a000000\n\
    327c31317c747ce280a6020000000c0000000000000001000000740804000000\n\
    02010000000000000004010000006103000000000000d03f0101010400000002\n\
    010000000000000004010000006103000000000000e03f010101040000000201\n\
    0000000000000004010000006103000000000000e83f01010a000000327c3132\n\
    7c747ce280a6020000000d000000000000000100000074090104000000020100\n\
    00000000000004010000006103000000000000e03f0101010400000002020000\n\
    000000000004010000006103000000000000e03f01010a000000327c31337c74\n\
    7ce280a6020000000e0000000000000001000000740a07000000726566757365\n\
    6400000a000000327c31347c747ce280a604000000000000000b000000000000\n\
    0001000000000000000200000000000000020000000100000074030000000200\n\
    0000020100000000000000040100000063010400000002010000000000000004\n\
    0100000063030000000000000c40010002000000020500000000000000040100\n\
    0000610004000000020500000000000000040100000061030000000000000440\n\
    0101020000000205000000000000000401000000620204000000020500000000\n\
    00000004010000006203000000000000e03f0101040000000205000000000000\n\
    0004010000006203000000000000f83f00010000007501000000020000000209\n\
    0000000000000004010000007a01040000000209000000000000000401000000\n\
    7a03000000000000f03f0100120000008cbc5b72cf3a3a390600000000000000\n\
    040500000074e28b887513000000af136424fb54772107000000000000000506\n\
    0000005f5f69766d300e000000fed5fd1d8fccfc450800000000000000020100\n\
    000076";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes
        .chunks(32)
        .map(|line| line.iter().map(|b| format!("{b:02x}")).collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

fn scan(table: &str, alias: &str) -> Box<Plan> {
    Box::new(Plan::Scan {
        table: table.into(),
        alias: alias.into(),
        // Composite key, every column type.
        schema: Schema::from_pairs(
            &[
                ("id", ColumnType::Int),
                ("tag", ColumnType::Str),
                ("w", ColumnType::Float),
                ("ok", ColumnType::Bool),
            ],
            &["id", "tag"],
        )
        .unwrap(),
    })
}

fn col(i: usize) -> Box<Expr> {
    Box::new(Expr::Col(i))
}

fn lit(v: impl Into<Value>) -> Box<Expr> {
    Box::new(Expr::Lit(v.into()))
}

/// All nine `Expr` variants; the four `BinOp`s, six `CmpOp`s and five
/// `ScalarFn`s.
fn every_expr() -> Expr {
    let bin = |op, l, r| Expr::Bin { op, left: l, right: r };
    let cmp = |op, l, r| Expr::Cmp { op, left: l, right: r };
    let func = |f, args| Expr::Func { f, args };
    Expr::And(vec![
        Expr::Or(vec![
            cmp(CmpOp::Eq, col(0), lit(7)),
            cmp(CmpOp::Ne, col(1), lit("é")),
            cmp(CmpOp::Lt, col(2), lit(1.5)),
            cmp(CmpOp::Le, col(0), lit(Value::Null)),
            cmp(CmpOp::Gt, col(0), lit(-3)),
            cmp(CmpOp::Ge, col(3), lit(true)),
        ]),
        Expr::Not(Box::new(Expr::IsNull(col(1)))),
        cmp(
            CmpOp::Eq,
            Box::new(bin(
                BinOp::Add,
                Box::new(bin(BinOp::Sub, col(0), lit(1))),
                Box::new(bin(BinOp::Mul, col(0), Box::new(bin(BinOp::Div, col(2), lit(2.0))))),
            )),
            Box::new(func(
                ScalarFn::Least,
                vec![
                    func(ScalarFn::Abs, vec![Expr::Col(0)]),
                    func(ScalarFn::Mod, vec![Expr::Col(0), Expr::Lit(Value::Int(5))]),
                    func(ScalarFn::Greatest, vec![Expr::Col(0), Expr::Col(0)]),
                ],
            )),
        ),
        cmp(
            CmpOp::Ne,
            Box::new(func(ScalarFn::Concat, vec![Expr::Col(1), Expr::Col(1)])),
            lit(""),
        ),
    ])
}

/// All nine `Plan` variants and all five `AggFunc`s.
fn every_plan() -> Plan {
    let join_args = |l: &str, r: &str| (scan("t", l), scan("u", r), vec![(0, 0), (1, 1)]);
    let (left, right, on) = join_args("a", "b");
    let inner = Plan::Join {
        kind: idivm_algebra::JoinKind::Inner,
        left,
        right,
        on,
        residual: Some(Expr::Cmp {
            op: CmpOp::Lt,
            left: col(2),
            right: col(6),
        }),
    };
    let (left, right, on) = join_args("c", "d");
    let outer = Plan::Join {
        kind: idivm_algebra::JoinKind::LeftOuter,
        left,
        right,
        on,
        residual: None,
    };
    let semi = Plan::Join {
        kind: idivm_algebra::JoinKind::Semi,
        left: Box::new(Plan::Project {
            input: Box::new(inner),
            cols: vec![
                ("id".into(), Expr::Col(0)),
                ("tag".into(), Expr::Col(1)),
                ("w".into(), Expr::Col(2)),
                ("ok".into(), Expr::Col(3)),
            ],
        }),
        right: scan("u", "e"),
        on: vec![(0, 0)],
        residual: None,
    };
    let anti = Plan::Join {
        kind: idivm_algebra::JoinKind::Anti,
        left: Box::new(semi),
        right: Box::new(Plan::Project {
            input: Box::new(outer),
            cols: vec![("id".into(), Expr::Col(0))],
        }),
        on: Vec::new(),
        residual: Some(Expr::Cmp {
            op: CmpOp::Eq,
            left: col(0),
            right: col(4),
        }),
    };
    Plan::GroupBy {
        input: Box::new(Plan::UnionAll {
            left: Box::new(Plan::Select {
                input: Box::new(anti),
                pred: every_expr(),
            }),
            right: scan("t", "f"),
        }),
        keys: vec![1, 4],
        aggs: vec![
            AggSpec::new(AggFunc::Sum, Expr::Col(0), "s"),
            AggSpec::new(AggFunc::Count, Expr::Lit(Value::Int(1)), "n"),
            AggSpec::new(AggFunc::Avg, Expr::Col(2), "avg"),
            AggSpec::new(AggFunc::Min, Expr::Col(0), "lo"),
            AggSpec::new(AggFunc::Max, Expr::Col(0), "hi"),
        ],
    }
}

fn letter(seq: u64, cause: DeadLetterCause, pre: Option<Row>, post: Option<Row>) -> DeadLetter {
    DeadLetter {
        producer: 2,
        seq,
        table: "t".into(),
        cause,
        pre,
        post,
        wire: format!("2|{seq}|t|…"),
    }
}

/// One dead letter per `DeadLetterCause`, all eleven.
fn every_dead_letter() -> Vec<DeadLetter> {
    vec![
        DeadLetter {
            producer: 0,
            seq: 0,
            table: String::new(),
            cause: DeadLetterCause::Decode("no op field".into()),
            pre: None,
            post: None,
            wire: "###".into(),
        },
        letter(1, DeadLetterCause::UnknownTable, None, Some(row![1])),
        letter(2, DeadLetterCause::WrongArity { expected: 4, got: 1 }, None, Some(row![1])),
        letter(
            3,
            DeadLetterCause::TypeMismatch { column: 2, expected: "float" },
            None,
            Some(row![1, "a", "b", true]),
        ),
        letter(9, DeadLetterCause::SequenceGap { expected: 4 }, Some(row![1]), None),
        letter(3, DeadLetterCause::SequenceRegression { expected: 10 }, None, None),
        letter(10, DeadLetterCause::DuplicateKey, None, Some(row![1, "a", 0.5, true])),
        letter(11, DeadLetterCause::MissingRow, Some(row![8, "z", 0.5, false]), None),
        letter(
            12,
            DeadLetterCause::StalePreImage { actual: row![1, "a", 0.25, true] },
            Some(row![1, "a", 0.5, true]),
            Some(row![1, "a", 0.75, true]),
        ),
        letter(
            13,
            DeadLetterCause::KeyChanged,
            Some(row![1, "a", 0.5, true]),
            Some(row![2, "a", 0.5, true]),
        ),
        letter(14, DeadLetterCause::Storage("refused".into()), None, None),
    ]
}

/// A two-table net, keys inserted in descending order: the canonical
/// encoding must sort them.
fn two_table_net() -> Net {
    let key = |id: i64, tag: &str| Key(vec![Value::Int(id), Value::str(tag)]);
    let mut u = TableChanges::new();
    u.insert(key(9, "z"), NetChange::Deleted { pre: row![9, "z", 1.0, false] });
    let mut t = TableChanges::new();
    t.insert(
        key(5, "b"),
        NetChange::Updated {
            pre: row![5, "b", 0.5, true],
            post: row![5, "b", 1.5, Value::Null],
        },
    );
    t.insert(key(5, "a"), NetChange::Inserted { post: row![5, "a", 2.5, true] });
    t.insert(key(1, "c"), NetChange::Deleted { pre: row![1, "c", 3.5, false] });
    HashMap::from([("u".to_string(), u.into()), ("t".to_string(), t.into())])
}

fn every_wal_record() -> Vec<WalRecord> {
    let round = |kind| WalRecord::Round {
        kind,
        net: HashMap::new(),
    };
    vec![
        WalRecord::Register {
            name: "v".into(),
            plan: every_plan(),
            policy: RefreshPolicy::Deferred {
                max_staleness_rounds: 3,
            },
        },
        round(RoundKind::Tick),
        round(RoundKind::Drain),
        round(RoundKind::ReadView("v".into())),
        WalRecord::Round {
            kind: RoundKind::Ingest {
                expected_seq: [(2u32, 15u64), (0, 1)].into_iter().collect(),
                dlq_appended: every_dead_letter(),
                totals: IngestTotals {
                    admitted: 4,
                    dead_lettered: 11,
                    shed: 1,
                    cuts: 2,
                },
            },
            net: two_table_net(),
        },
        WalRecord::Promote { label: "t⋈u".into() },
        WalRecord::Demote {
            backing: "__ivm0".into(),
        },
        WalRecord::Unregister { name: "v".into() },
    ]
}

fn checkpoint() -> Checkpoint {
    let plain = Schema::from_pairs(&[("k", ColumnType::Int), ("v", ColumnType::Float)], &["k"]);
    let wide = Schema::from_pairs(
        &[
            ("id", ColumnType::Int),
            ("tag", ColumnType::Str),
            ("w", ColumnType::Float),
            ("ok", ColumnType::Bool),
        ],
        &["id", "tag"],
    );
    Checkpoint {
        last_lsn: 41,
        tables: vec![
            TableSnapshot {
                name: "floats".into(),
                schema: plain.unwrap(),
                rows: vec![
                    row![1, -0.0],
                    row![2, f64::from_bits(0x7ff8_0000_dead_beef)],
                    row![3, Value::Null],
                ],
                indexes: Vec::new(),
            },
            TableSnapshot {
                name: "t".into(),
                schema: wide.unwrap(),
                rows: vec![row![1, "żółw", 0.5, true], row![2, "", -1.25, false]],
                indexes: vec![vec![1], vec![3, 2]],
            },
        ],
        views: vec![ViewManifest {
            name: "v".into(),
            plan: *scan("t", "t"),
            policy: RefreshPolicy::OnRead,
            pending: two_table_net(),
            staleness: 2,
        }],
        intermediates: vec![IntermediateManifest {
            backing: "__ivm0".into(),
            subtree: Plan::UnionAll {
                left: scan("t", "l"),
                right: scan("t", "r"),
            },
            structure: "U(t,t)".into(),
            label: "t∪t".into(),
            consumers: vec!["v".into(), "w".into()],
            pending: HashMap::new(),
        }],
        next_backing: 1,
        round: 9,
        trackers: vec![("U(t,t)".into(), 2, 0), ("J(t,u)".into(), 0, 5)],
        ingest: Some(IngestSnapshot {
            expected_seq: [(7u32, 3u64), (2, 15)].into_iter().collect(),
            dead_letters: every_dead_letter().split_off(8),
            totals: IngestTotals {
                admitted: 40,
                dead_lettered: 3,
                shed: 0,
                cuts: 6,
            },
        }),
    }
}

#[test]
fn wal_bytes_are_pinned_and_scan_returns_the_inputs() {
    let dir = fresh_dir("golden_wal");
    let path = dir.join("wal.log");
    let records = every_wal_record();
    let mut wal = Wal::create(&path, 1, no_faults()).unwrap();
    for record in &records {
        wal.append(record).unwrap();
    }
    wal.fsync().unwrap();

    let bytes = std::fs::read(&path).unwrap();
    let actual = hex(&bytes);
    assert_eq!(actual, WAL_HEX, "WAL image moved; it is now:\n{actual}");
    assert_eq!(bytes.len(), WAL_LEN);
    assert_eq!(wal.len(), WAL_LEN as u64);
    assert_eq!(fnv1a(&bytes), WAL_FNV, "{:#x}", fnv1a(&bytes));

    let scanned = Wal::scan(&path).unwrap();
    assert!(!scanned.torn);
    assert_eq!(scanned.valid_len, WAL_LEN as u64);
    let expected: Vec<(u64, WalRecord)> = (1..).zip(records).collect();
    assert_eq!(scanned.records, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_bytes_are_pinned_and_load_re_encodes_identically() {
    let dir = fresh_dir("golden_ckpt");
    checkpoint().write(&dir, &no_faults()).unwrap();

    let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (CHECKPOINT_LEN, CHECKPOINT_FNV),
        "checkpoint image moved: {} bytes, fnv {:#x}",
        bytes.len(),
        fnv1a(&bytes)
    );
    // Compared as bytes: the snapshot holds a NaN, which is not `==` to
    // itself.
    let loaded = Checkpoint::load(&dir).unwrap();
    assert_eq!(loaded.to_bytes(), bytes);
    assert_eq!(loaded.tables[1], checkpoint().tables[1]);
    assert_eq!(loaded.views, checkpoint().views);
    assert_eq!(loaded.intermediates, checkpoint().intermediates);
    assert_eq!(loaded.ingest, checkpoint().ingest);
    std::fs::remove_dir_all(&dir).ok();
}
