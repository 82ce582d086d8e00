//! BSMA-like social-media analytics workload (paper Section 7.1,
//! Figures 9 and 10).
//!
//! Schema (Figure 9a) with the paper's relative sizes, scaled by
//! `scale` (default 1/1000 of the paper's 1M-user configuration):
//!
//! | relation             | paper | here (scale = 1.0)    |
//! |----------------------|-------|-----------------------|
//! | users                | 1M    | 1 000                 |
//! | friendlist           | 100M  | 100 000               |
//! | microblog (tweets)   | 20M   | 20 000                |
//! | retweets             | 4M    | 4 000 (10% × 2)       |
//! | mentions             | 8M    | 8 000 (20% × 2)       |
//! | rel_event_microblog  | 16M   | 16 000 (40% × 2)      |
//!
//! The workload (Figure 9b + Section 7.1): views Q7, Q10, Q11, Q15,
//! Q18 (join chains + aggregation unaffected by the updates, extended
//! with `tweetsnum`/`favornum` in the SELECT and without ORDER/LIMIT)
//! plus Q*1, Q*2, Q*3 (aggregates *affected* by the updates), driven by
//! 100 update diffs on `users(tweetsnum, favornum)`. Each view is its
//! SQL text ([`Bsma::sql`]); [`Bsma::plan`] lowers it.

use idivm_algebra::Plan;
use idivm_reldb::Database;
use idivm_sql::plan_sql;
use idivm_types::{row, ColumnType, Key, Result, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct Bsma {
    /// Multiplier over the 1/1000-scale defaults above.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Bsma {
    fn default() -> Self {
        Bsma {
            scale: 1.0,
            seed: 2015,
        }
    }
}

/// The eight views of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BsmaQuery {
    Q7,
    Q10,
    Q11,
    Q15,
    Q18,
    QStar1,
    QStar2,
    QStar3,
}

impl BsmaQuery {
    /// All queries, in Figure 10's order.
    pub const ALL: [BsmaQuery; 8] = [
        BsmaQuery::Q7,
        BsmaQuery::Q10,
        BsmaQuery::Q11,
        BsmaQuery::Q15,
        BsmaQuery::Q18,
        BsmaQuery::QStar1,
        BsmaQuery::QStar2,
        BsmaQuery::QStar3,
    ];

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            BsmaQuery::Q7 => "Q7",
            BsmaQuery::Q10 => "Q10",
            BsmaQuery::Q11 => "Q11",
            BsmaQuery::Q15 => "Q15",
            BsmaQuery::Q18 => "Q18",
            BsmaQuery::QStar1 => "Q*1",
            BsmaQuery::QStar2 => "Q*2",
            BsmaQuery::QStar3 => "Q*3",
        }
    }

    /// Paper description (Figure 9b).
    pub fn description(self) -> &'static str {
        match self {
            BsmaQuery::Q7 => "Mentioned users within a time range",
            BsmaQuery::Q10 => "Users who are retweeted within a time range",
            BsmaQuery::Q11 => "Pairs of retweeting users, grouped by retweeting times",
            BsmaQuery::Q15 => "Users talking about events within a time range",
            BsmaQuery::Q18 => "Pairwise count of mentions",
            BsmaQuery::QStar1 => "Aggregate of friends of friends within the same city",
            BsmaQuery::QStar2 => "Aggregate of retweeters for every user",
            BsmaQuery::QStar3 => "Aggregate of users who tweet about topics",
        }
    }
}

impl Bsma {
    fn n_users(&self) -> usize {
        ((1_000.0 * self.scale) as usize).max(10)
    }

    fn n_friend_edges(&self) -> usize {
        (100_000.0 * self.scale) as usize
    }

    fn n_tweets(&self) -> usize {
        ((20_000.0 * self.scale) as usize).max(20)
    }

    fn n_retweets(&self) -> usize {
        (4_000.0 * self.scale) as usize
    }

    fn n_mentions(&self) -> usize {
        (8_000.0 * self.scale) as usize
    }

    fn n_events(&self) -> usize {
        (16_000.0 * self.scale) as usize
    }

    /// Number of distinct cities (drives Q*1's selectivity).
    fn n_cities(&self) -> usize {
        20
    }

    /// Number of distinct topics (drives Q*3's grouping).
    fn n_topics(&self) -> usize {
        50
    }

    /// Timestamp domain (tweets are spread uniformly over it).
    fn ts_domain(&self) -> i64 {
        1_000_000
    }

    /// The time range used by Q7/Q10/Q15 (roughly 20 % of the domain).
    pub fn time_range(&self) -> (i64, i64) {
        (400_000, 600_000)
    }

    /// Build and populate the database (bulk load, unlogged).
    ///
    /// # Errors
    /// Schema failures (a bug).
    pub fn build(&self) -> Result<Database> {
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "users",
            Schema::from_pairs(
                &[
                    ("uid", ColumnType::Int),
                    ("city", ColumnType::Int),
                    ("tweetsnum", ColumnType::Int),
                    ("favornum", ColumnType::Int),
                ],
                &["uid"],
            )?,
        )?;
        db.create_table(
            "friendlist",
            Schema::from_pairs(
                &[("uid", ColumnType::Int), ("fid", ColumnType::Int)],
                &["uid", "fid"],
            )?,
        )?;
        db.create_table(
            "microblog",
            Schema::from_pairs(
                &[
                    ("mid", ColumnType::Int),
                    ("uid", ColumnType::Int),
                    ("ts", ColumnType::Int),
                    ("topic", ColumnType::Int),
                ],
                &["mid"],
            )?,
        )?;
        db.create_table(
            "retweets",
            Schema::from_pairs(
                &[
                    ("mid", ColumnType::Int),
                    ("uid", ColumnType::Int),
                    ("ts", ColumnType::Int),
                ],
                &["mid", "uid"],
            )?,
        )?;
        db.create_table(
            "mentions",
            Schema::from_pairs(
                &[("mid", ColumnType::Int), ("uid", ColumnType::Int)],
                &["mid", "uid"],
            )?,
        )?;
        db.create_table(
            "rel_event_microblog",
            Schema::from_pairs(
                &[("eid", ColumnType::Int), ("mid", ColumnType::Int)],
                &["eid", "mid"],
            )?,
        )?;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let nu = self.n_users() as i64;
        let nt = self.n_tweets() as i64;
        for uid in 0..nu {
            let city = rng.gen_range(0..self.n_cities() as i64);
            let tweets: i64 = rng.gen_range(0..500);
            let favor: i64 = rng.gen_range(0..2_000);
            db.table_mut("users")?.load(row![uid, city, tweets, favor])?;
        }
        for _ in 0..self.n_friend_edges() {
            let a = rng.gen_range(0..nu);
            let b = rng.gen_range(0..nu);
            let _ = db.table_mut("friendlist")?.load(row![a, b]);
        }
        for mid in 0..nt {
            let uid = rng.gen_range(0..nu);
            let ts = rng.gen_range(0..self.ts_domain());
            let topic = rng.gen_range(0..self.n_topics() as i64);
            db.table_mut("microblog")?.load(row![mid, uid, ts, topic])?;
        }
        for _ in 0..self.n_retweets() {
            let mid = rng.gen_range(0..nt);
            let uid = rng.gen_range(0..nu);
            let ts = rng.gen_range(0..self.ts_domain());
            let _ = db.table_mut("retweets")?.load(row![mid, uid, ts]);
        }
        for _ in 0..self.n_mentions() {
            let mid = rng.gen_range(0..nt);
            let uid = rng.gen_range(0..nu);
            let _ = db.table_mut("mentions")?.load(row![mid, uid]);
        }
        for eid in 0..self.n_events() as i64 {
            let mid = rng.gen_range(0..nt);
            let _ = db
                .table_mut("rel_event_microblog")?
                .load(row![eid, mid]);
        }
        db.set_logging(true);
        Ok(db)
    }

    /// The plan of one of the eight queries: [`Self::sql`] lowered
    /// against `db`.
    ///
    /// # Errors
    /// Lowering failures.
    pub fn plan(&self, db: &Database, q: BsmaQuery) -> Result<Plan> {
        plan_sql(db, &self.sql(q))
    }

    /// One of the eight queries' definitions.
    pub fn sql(&self, q: BsmaQuery) -> String {
        let (lo, hi) = self.time_range();
        let in_range = |col: &str| format!("{col} >= {lo} AND {col} <= {hi}");
        match q {
            // Mentioned users within a time range: mentions ⋈ microblog
            // (σ ts) ⋈ users.
            BsmaQuery::Q7 => format!(
                "SELECT mentions.mid, mentions.uid, users.tweetsnum, users.favornum \
                 FROM mentions JOIN microblog ON mentions.mid = microblog.mid \
                 JOIN users ON mentions.uid = users.uid WHERE {}",
                in_range("microblog.ts")
            ),
            // Users who are retweeted within a time range: a 4-relation
            // chain — retweets → microblog → author → retweeter. The
            // helper keeps the `ts` filter above all three joins.
            BsmaQuery::Q10 => format!(
                "WITH chain AS (SELECT retweets.mid, retweets.uid, microblog.ts, \
                 author.uid AS author_uid, author.tweetsnum AS author_tweetsnum, \
                 author.favornum AS author_favornum, retweeter.tweetsnum AS retweeter_tweetsnum \
                 FROM retweets JOIN microblog ON retweets.mid = microblog.mid \
                 JOIN users author ON microblog.uid = author.uid \
                 JOIN users retweeter ON retweets.uid = retweeter.uid) \
                 SELECT chain.mid, chain.uid, chain.author_uid, chain.author_tweetsnum, \
                 chain.author_favornum, chain.retweeter_tweetsnum FROM chain WHERE {}",
                in_range("chain.ts")
            ),
            // Pairs of retweeting users grouped by retweet count, with
            // the first user's attributes joined above the aggregate.
            BsmaQuery::Q11 => "WITH pairs AS (SELECT r1.uid AS u1, r2.uid AS u2, COUNT(*) AS times \
                 FROM retweets r1 JOIN retweets r2 ON r1.mid = r2.mid \
                 WHERE r1.uid < r2.uid GROUP BY r1.uid, r2.uid) \
                 SELECT pairs.u1, pairs.u2, pairs.times, users.tweetsnum, users.favornum \
                 FROM pairs JOIN users ON pairs.u1 = users.uid"
                .to_string(),
            // Users talking about events within a time range (large
            // view ⇒ low speedup in the paper).
            BsmaQuery::Q15 => format!(
                "SELECT rel_event_microblog.eid, rel_event_microblog.mid, users.uid, \
                 users.tweetsnum, users.favornum FROM rel_event_microblog \
                 JOIN microblog ON rel_event_microblog.mid = microblog.mid \
                 JOIN users ON microblog.uid = users.uid WHERE {}",
                in_range("microblog.ts")
            ),
            // Pairwise count of mentions, user attributes joined above.
            BsmaQuery::Q18 => "WITH pairs AS (SELECT m1.uid AS u1, m2.uid AS u2, COUNT(*) AS n \
                 FROM mentions m1 JOIN mentions m2 ON m1.mid = m2.mid \
                 WHERE m1.uid < m2.uid GROUP BY m1.uid, m2.uid) \
                 SELECT pairs.u1, pairs.u2, pairs.n, users.tweetsnum, users.favornum \
                 FROM pairs JOIN users ON pairs.u1 = users.uid"
                .to_string(),
            // Aggregate of friends of friends within the same city —
            // long join chain + late selective filter, aggregate
            // *affected* by the updates.
            BsmaQuery::QStar1 => "SELECT u.uid, SUM(u2.tweetsnum) AS fof_tweets \
                 FROM users u JOIN friendlist f1 ON u.uid = f1.uid \
                 JOIN friendlist f2 ON f1.fid = f2.uid JOIN users u2 ON f2.fid = u2.uid \
                 WHERE u.city = u2.city GROUP BY u.uid"
                .to_string(),
            // Aggregate of retweeters for every user (affected).
            BsmaQuery::QStar2 => "SELECT microblog.uid, SUM(ru.favornum) AS retweeter_favor \
                 FROM microblog JOIN retweets ON microblog.mid = retweets.mid \
                 JOIN users ru ON retweets.uid = ru.uid GROUP BY microblog.uid"
                .to_string(),
            // Aggregate of users who tweet about topics (affected):
            // topics are modelled by the event relation, giving the
            // 3-relation chain events → tweets → users.
            BsmaQuery::QStar3 => "SELECT microblog.topic, SUM(users.tweetsnum) AS topic_tweets \
                 FROM rel_event_microblog JOIN microblog ON rel_event_microblog.mid = microblog.mid \
                 JOIN users ON microblog.uid = users.uid GROUP BY microblog.topic"
                .to_string(),
        }
    }

    /// The workload of Section 7.1: `d` update diffs on the `users`
    /// table touching `tweetsnum` and `favornum` (non-conditional
    /// attributes for Q7–Q18, aggregate-feeding for the Q* views).
    ///
    /// # Errors
    /// Unknown rows (a bug).
    pub fn user_update_batch(&self, db: &mut Database, d: usize, round: u64) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ round.wrapping_mul(0xA5A5_5A5A));
        let nu = self.n_users() as i64;
        for _ in 0..d {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_exec::execute;

    fn tiny() -> Bsma {
        Bsma {
            scale: 0.05,
            seed: 9,
        }
    }

    #[test]
    fn build_respects_relative_sizes() {
        let cfg = tiny();
        let db = cfg.build().unwrap();
        let users = db.table("users").unwrap().len();
        let tweets = db.table("microblog").unwrap().len();
        assert_eq!(users, 50);
        assert_eq!(tweets, 1_000);
        // Mentions ≈ 2 × retweets (collisions may shave a few).
        let retweets = db.table("retweets").unwrap().len();
        let mentions = db.table("mentions").unwrap().len();
        assert!(mentions > retweets);
    }

    #[test]
    fn all_eight_queries_plan_and_execute() {
        let cfg = tiny();
        let db = cfg.build().unwrap();
        for q in BsmaQuery::ALL {
            let plan = cfg
                .plan(&db, q)
                .unwrap_or_else(|e| panic!("{}: {e}", q.label()));
            let plan = idivm_algebra::ensure_ids(plan).unwrap();
            let rows = execute(&db, &plan)
                .unwrap_or_else(|e| panic!("{}: {e}", q.label()));
            assert!(!rows.is_empty(), "{} returned empty", q.label());
        }
    }

    #[test]
    fn update_batch_touches_users_only() {
        let cfg = tiny();
        let mut db = cfg.build().unwrap();
        cfg.user_update_batch(&mut db, 20, 1).unwrap();
        let folded = db.fold_log();
        assert_eq!(folded.len(), 1);
        assert!(folded.contains_key("users"));
    }
}
