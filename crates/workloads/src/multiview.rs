//! Multi-view workload: the overlapping **Q7 family** over the BSMA
//! schema, plus a tweet-stream modification generator.
//!
//! The paper's idIVM is a multi-view maintainer: base-table i-diffs are
//! computed once and pushed through every dependent view. This module
//! provides the suite the view-catalog experiments run on — five
//! standing views that all contain the *same* operator subtree
//!
//! ```text
//!     σ_{lo ≤ ts ≤ hi}(mentions ⋈_{mid} microblog)
//! ```
//!
//! (the Q7 "mentions within a time range" prefix) but diverge above it:
//!
//! | view                   | above the shared prefix                    |
//! |------------------------|--------------------------------------------|
//! | `mention_users`        | ⋈ users, project (Q7 itself)               |
//! | `mention_reach`        | ⋈ users, project [mid, uid, tweetsnum]     |
//! | `mention_timeline`     | project [mid, uid, ts]                     |
//! | `mention_topic_counts` | γ_{topic; count(*)}                        |
//! | `mention_favor`        | ⋈ users, γ_{mentions.uid; sum(favornum)}   |
//!
//! Three of them (`mention_users`, `mention_reach`, `mention_favor`)
//! additionally share the *deep* prefix `σ(mentions ⋈ microblog) ⋈
//! users` — the adaptive-materialization experiments promote that
//! subtree to a hidden backing table with three consumer views.
//!
//! Maintained independently, each view pays the prefix's diff
//! computation itself; under a shared-prefix catalog it is paid once
//! and fanned out (`idivm-bench multiview` measures the ratio).
//!
//! One deliberate wrinkle: `mention_topic_counts` groups on
//! `microblog.topic`, which makes `topic` a **conditional** attribute
//! in that view only (grouping keys join the selection/join attributes
//! in `C_op`). Its `microblog` update-diff schemas therefore split
//! differently from the other three views', so the structurally
//! identical prefix would populate *different* diff instances — prefix
//! detection correctly refuses to designate it, and the view serves as
//! the suite's soundness negative control. The other four views share.
//!
//! [`MultiView::tweet_batch`] drives the suite with a modification mix
//! that actually *reaches* the shared prefix (unlike the Figure 10
//! workload, which only updates `users`): new tweets with mention
//! edges, timestamp/topic updates on existing tweets, and a sprinkle of
//! `users` updates so the non-shared parts of the DAG stay exercised.

use crate::bsma::Bsma;
use idivm_algebra::Plan;
use idivm_reldb::Database;
use idivm_sql::plan_sql;
use idivm_types::{row, Key, Result, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The overlapping-prefix multi-view suite over the BSMA schema.
#[derive(Debug, Clone, Default)]
pub struct MultiView {
    /// Underlying data generator (schema, sizes, seed).
    pub bsma: Bsma,
}

/// The five view names, in registration (= maintenance) order.
pub const VIEW_NAMES: [&str; 5] = [
    "mention_favor",
    "mention_reach",
    "mention_timeline",
    "mention_topic_counts",
    "mention_users",
];

impl MultiView {
    /// Build and populate the base database (delegates to
    /// [`Bsma::build`]).
    ///
    /// # Errors
    /// Schema failures (a bug).
    pub fn build(&self) -> Result<Database> {
        self.bsma.build()
    }

    /// One of the five view plans by name: [`Self::sql`] lowered
    /// against `db`.
    ///
    /// # Errors
    /// Unknown view name ([`idivm_types::Error::Config`]) or lowering
    /// failures.
    pub fn plan(&self, db: &Database, name: &str) -> Result<Plan> {
        plan_sql(db, &self.sql(name)?)
    }

    /// One of the five views' definitions. Every one starts from the
    /// same σ_ts(mentions ⋈ microblog) prefix: lowering binds both `ts`
    /// conjuncts at the microblog join step in one `Select`, so a
    /// catalog can compute the prefix's i-diffs once per round.
    ///
    /// # Errors
    /// Unknown view name ([`idivm_types::Error::Config`]).
    pub fn sql(&self, name: &str) -> Result<String> {
        let (lo, hi) = self.bsma.time_range();
        let prefix = format!(
            "FROM mentions JOIN microblog ON mentions.mid = microblog.mid \
             {{}}WHERE microblog.ts >= {lo} AND microblog.ts <= {hi}"
        );
        let with_users = prefix.replace(
            "{}",
            "JOIN users ON mentions.uid = users.uid ",
        );
        let plain = prefix.replace("{}", "");
        Ok(match name {
            "mention_users" => format!(
                "SELECT mentions.mid, mentions.uid, users.tweetsnum, users.favornum {with_users}"
            ),
            "mention_reach" => {
                format!("SELECT mentions.mid, mentions.uid, users.tweetsnum {with_users}")
            }
            "mention_timeline" => {
                format!("SELECT mentions.mid, mentions.uid, microblog.ts {plain}")
            }
            "mention_topic_counts" => format!(
                "SELECT microblog.topic, COUNT(*) AS n {plain} GROUP BY microblog.topic"
            ),
            "mention_favor" => format!(
                "SELECT mentions.uid, SUM(users.favornum) AS favor {with_users} \
                 GROUP BY mentions.uid"
            ),
            other => {
                return Err(idivm_types::Error::Config(format!(
                    "unknown multi-view suite view `{other}`"
                )))
            }
        })
    }

    /// All five `(name, plan)` pairs, in [`VIEW_NAMES`] order.
    ///
    /// # Errors
    /// Plan-construction failures.
    pub fn views(&self, db: &Database) -> Result<Vec<(String, Plan)>> {
        VIEW_NAMES
            .iter()
            .map(|n| Ok(((*n).to_string(), self.plan(db, n)?)))
            .collect()
    }

    /// One round of the tweet stream: `d` new tweets (each with two
    /// mention edges), `d/4` timestamp/topic updates on existing
    /// tweets, and `d/4` `users(tweetsnum, favornum)` updates.
    ///
    /// New tweet ids live in a per-round block disjoint from the seed
    /// data and from every other round, so batches compose cleanly.
    /// Everything is a deterministic function of `(seed, round)`.
    ///
    /// # Errors
    /// Unknown rows (a bug).
    pub fn tweet_batch(&self, db: &mut Database, d: usize, round: u64) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.bsma.seed ^ round.wrapping_mul(0x5DEE_CE66));
        let nu = db.table("users")?.len() as i64;
        let seed_tweets = ((20_000.0 * self.bsma.scale) as i64).max(20);
        let ts_domain = 1_000_000;
        for i in 0..d {
            let mid = 1_000_000 + round as i64 * 100_000 + i as i64;
            let uid = rng.gen_range(0..nu);
            let ts = rng.gen_range(0..ts_domain);
            let topic = rng.gen_range(0..50);
            db.insert("microblog", row![mid, uid, ts, topic])?;
            for _ in 0..2 {
                let mentioned = rng.gen_range(0..nu);
                // Composite key (mid, uid): a duplicate mention of the
                // same user in the same fresh tweet is simply skipped.
                let _ = db.insert("mentions", row![mid, mentioned]);
            }
        }
        for _ in 0..d / 4 {
            let mid = rng.gen_range(0..seed_tweets);
            let ts = rng.gen_range(0..ts_domain);
            let topic = rng.gen_range(0..50);
            db.update_named(
                "microblog",
                &Key(vec![Value::Int(mid)]),
                &[("ts", Value::Int(ts)), ("topic", Value::Int(topic))],
            )?;
        }
        for _ in 0..d / 4 {
            let uid = rng.gen_range(0..nu);
            let tweets: i64 = rng.gen_range(0..500);
            let favor: i64 = rng.gen_range(0..2_000);
            db.update_named(
                "users",
                &Key(vec![Value::Int(uid)]),
                &[
                    ("tweetsnum", Value::Int(tweets)),
                    ("favornum", Value::Int(favor)),
                ],
            )?;
        }
        Ok(())
    }

    /// The deterministic tweet stream as raw CDC material: `rounds`
    /// rounds of [`MultiView::tweet_batch`] run against a *shadow
    /// replica* (a fresh [`MultiView::build`] database), returning the
    /// captured DML log entries in order. Pre-images in the entries
    /// are exact for any consumer that starts from the same seeded
    /// build and applies them in per-key order — which is precisely
    /// the streaming-ingest contract.
    ///
    /// # Errors
    /// Build/DML failures (a bug).
    pub fn tweet_stream(&self, rounds: u64, d: usize) -> Result<Vec<idivm_reldb::LogEntry>> {
        let mut shadow = self.build()?;
        shadow.clear_log();
        let mut out = Vec::new();
        for round in 0..rounds {
            self.tweet_batch(&mut shadow, d, round)?;
            out.extend(shadow.log().entries().iter().cloned());
            shadow.clear_log();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_exec::execute;

    fn tiny() -> MultiView {
        MultiView {
            bsma: Bsma {
                scale: 0.05,
                seed: 9,
            },
        }
    }

    #[test]
    fn all_five_views_plan_and_execute() {
        let cfg = tiny();
        let db = cfg.build().unwrap();
        for (name, plan) in cfg.views(&db).unwrap() {
            let plan = idivm_algebra::ensure_ids(plan).unwrap();
            let rows = execute(&db, &plan).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!rows.is_empty(), "{name} returned empty");
        }
    }

    #[test]
    fn tweet_batch_reaches_the_shared_prefix_tables() {
        let cfg = tiny();
        let mut db = cfg.build().unwrap();
        cfg.tweet_batch(&mut db, 16, 1).unwrap();
        let folded = db.fold_log();
        assert!(folded.contains_key("microblog"), "tweet inserts missing");
        assert!(folded.contains_key("mentions"), "mention inserts missing");
        assert!(folded.contains_key("users"), "user updates missing");
    }

    #[test]
    fn rounds_use_disjoint_tweet_id_blocks() {
        let cfg = tiny();
        let mut db = cfg.build().unwrap();
        cfg.tweet_batch(&mut db, 8, 1).unwrap();
        cfg.tweet_batch(&mut db, 8, 2).unwrap();
        let folded = db.fold_log();
        // 16 distinct new tweets — no same-key collapse between rounds.
        let inserted = folded["microblog"]
            .values()
            .filter(|c| matches!(c, idivm_reldb::NetChange::Inserted { .. }))
            .count();
        assert_eq!(inserted, 16);
    }

    #[test]
    fn unknown_view_name_is_a_config_error() {
        let cfg = tiny();
        let db = cfg.build().unwrap();
        assert!(cfg.plan(&db, "nope").is_err());
    }
}
