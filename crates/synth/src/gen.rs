//! The streaming million-user generator.
//!
//! [`SynthConfig`] holds the knobs, [`SynthConfig::generate_user`] plays
//! out one user's days deterministically, and [`TraceStream`] strings
//! the users together into a single user-major, time-ordered record
//! stream — the exact layout `gepeto::dfs_io::put_dataset` writes, so
//! downstream jobs cannot tell a streamed synthetic file from a loaded
//! one.

use crate::dwell::{dwell_secs, normal};
use gepeto_model::{GeoPoint, MobilityTrace, Timestamp, Trail, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Meters per degree of latitude (and of longitude at the equator).
const M_PER_DEG: f64 = 111_194.93;

/// Bytes one trace occupies as a PLT text line (the DFS sizing unit).
const PLT_LINE_BYTES: u64 = 64;

/// Users per generation block of [`SynthConfig::to_dfs`]. A constant,
/// so the blocks depend on the input alone, never on the thread count.
const INGEST_BLOCK_USERS: u64 = 1_024;

/// Configuration of the synthetic workload. All knobs are plain data;
/// the generator is a pure function of this struct.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of users. Each user's trail is derived independently, so
    /// this is the scale axis: `users = 1_000_000` is a one-liner.
    pub users: u64,
    /// Master seed; every per-user stream is deterministic in it.
    pub seed: u64,
    /// Simulated days per user.
    pub days: u32,
    /// GPS fixes logged along each commute leg.
    pub commute_waypoints: u32,
    /// Probability of an evening POI visit after work.
    pub outing_probability: f64,
    /// City center all geography is anchored to.
    pub city_center: GeoPoint,
    /// Midnight of the first simulated day.
    pub start: Timestamp,
}

impl SynthConfig {
    /// The default profile for `users` users: one simulated day, three
    /// waypoints per commute, Beijing-like geography. At these settings a
    /// user logs 10–15 traces per day, so a million users produce a
    /// ~13M-trace (~800 MB as PLT text) workload.
    ///
    /// # Panics
    /// If `users` is zero or exceeds `u32::MAX` (the [`UserId`] range).
    pub fn new(users: u64) -> Self {
        assert!(users > 0, "need at least one user");
        assert!(
            users <= u64::from(u32::MAX),
            "user count exceeds the UserId range"
        );
        Self {
            users,
            seed: 20130520,
            days: 1,
            commute_waypoints: 3,
            outing_probability: 0.55,
            city_center: GeoPoint::new(39.9042, 116.4074), // Beijing
            start: Timestamp::from_civil(2008, 5, 5, 0, 0, 0).unwrap(),
        }
    }

    /// Replaces the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the simulated day count.
    ///
    /// # Panics
    /// If `days` is zero.
    pub fn days(mut self, days: u32) -> Self {
        assert!(days > 0, "need at least one simulated day");
        self.days = days;
        self
    }

    /// Hard upper bound on traces a single user emits in one day.
    fn max_traces_per_day(&self) -> u64 {
        // wake + commute + work(2) + outing(waypoints + 2) + commute
        // home + final home fix.
        3 * u64::from(self.commute_waypoints) + 6
    }

    /// Expected total trace count — what a pre-sizing consumer should
    /// reserve for. Saturating: a nonsense configuration yields
    /// `u64::MAX`, never a wrapped-around small number.
    pub fn estimated_traces(&self) -> u64 {
        let per_day = 2 * u64::from(self.commute_waypoints) + 4;
        let outing =
            (self.outing_probability * (f64::from(self.commute_waypoints) + 2.0)).ceil() as u64;
        self.users
            .saturating_mul(u64::from(self.days))
            .saturating_mul(per_day + outing)
    }

    /// Hard upper bound on the total trace count (every user takes the
    /// evening outing every day). Saturating, like
    /// [`SynthConfig::estimated_traces`].
    pub fn max_traces(&self) -> u64 {
        self.users
            .saturating_mul(u64::from(self.days))
            .saturating_mul(self.max_traces_per_day())
    }

    /// Approximate PLT text size of the full output, in bytes.
    pub fn estimated_plt_bytes(&self) -> u64 {
        self.estimated_traces().saturating_mul(PLT_LINE_BYTES)
    }

    /// The traces of every user as one streaming iterator: user-major,
    /// time-ordered within each user, holding one user's trail at a
    /// time. Two calls yield identical streams.
    pub fn stream(&self) -> TraceStream {
        TraceStream {
            cfg: self.clone(),
            next_user: 0,
            buf: Vec::new().into_iter(),
        }
    }

    /// Generates one user's trail deterministically — a pure function of
    /// `(seed, user)`, independent of every other user.
    pub fn generate_user(&self, user: UserId) -> Trail {
        let mut traces = Vec::with_capacity(self.max_traces_per_user());
        self.emit_user(user, &mut traces);
        Trail::new(user, traces)
    }

    /// Upper bound on the traces one user emits over all days.
    fn max_traces_per_user(&self) -> usize {
        (self.max_traces_per_day() * u64::from(self.days)) as usize
    }

    /// Appends `user`'s traces to `out` in the order of
    /// [`SynthConfig::generate_user`]'s trail: stably time-sorted, as
    /// `Trail::new` leaves them.
    fn emit_user(&self, user: UserId, out: &mut Vec<MobilityTrace>) {
        let first = out.len();
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(user) + 1),
        );
        let profile = UserProfile::derive(self, &mut rng);
        // Strictly advancing clock; days that spill past midnight push
        // the next wake-up instead of rewinding time.
        let mut clock = self.start;
        for day in 0..self.days {
            let midnight = self.start.plus(i64::from(day) * 86_400);
            self.emit_day(&mut rng, user, &profile, midnight, &mut clock, out);
        }
        let own = &mut out[first..];
        if !own.is_sorted_by_key(|t| t.timestamp) {
            own.sort_by_key(|t| t.timestamp);
        }
    }

    /// One day: wake at home, commute, work dwell, optional evening POI
    /// visit, commute home.
    fn emit_day(
        &self,
        rng: &mut StdRng,
        user: UserId,
        profile: &UserProfile,
        midnight: Timestamp,
        clock: &mut Timestamp,
        out: &mut Vec<MobilityTrace>,
    ) {
        let wake = dwell_secs(rng, 3, 7.0 * 3_600.0, 4 * 3_600, 10 * 3_600);
        let mut t = midnight.plus(wake);
        if t < *clock {
            // The previous day ran long; sleep a minimum rest instead.
            t = clock.plus(6 * 3_600);
        }
        self.emit_fix(rng, user, profile.home, t, out);
        t = self.emit_commute(rng, user, profile.home, profile.work, t, out);
        let work_dwell = dwell_secs(rng, 4, 8.0 * 3_600.0, 4 * 3_600, 11 * 3_600);
        self.emit_fix(rng, user, profile.work, t.plus(work_dwell / 2), out);
        t = t.plus(work_dwell);
        self.emit_fix(rng, user, profile.work, t, out);
        if rng.random_bool(self.outing_probability) {
            let poi = profile.pois[rng.random_range(0..profile.pois.len())];
            t = self.emit_commute(rng, user, profile.work, poi, t, out);
            self.emit_fix(rng, user, poi, t, out);
            t = t.plus(dwell_secs(rng, 2, 5_400.0, 1_200, 4 * 3_600));
            self.emit_fix(rng, user, poi, t, out);
            t = self.emit_commute(rng, user, poi, profile.home, t, out);
        } else {
            t = self.emit_commute(rng, user, profile.work, profile.home, t, out);
        }
        self.emit_fix(rng, user, profile.home, t, out);
        *clock = t;
    }

    /// Emits the waypoint fixes of one commute leg; returns the arrival
    /// time.
    fn emit_commute(
        &self,
        rng: &mut StdRng,
        user: UserId,
        from: GeoPoint,
        to: GeoPoint,
        start: Timestamp,
        out: &mut Vec<MobilityTrace>,
    ) -> Timestamp {
        let dist = gepeto_geo::haversine_m(from, to).max(150.0);
        let secs = (dist / speed_mps(dist)) as i64 + 60;
        for i in 0..self.commute_waypoints {
            let frac = f64::from(i + 1) / f64::from(self.commute_waypoints + 1);
            let pos = interpolate(from, to, frac);
            self.emit_fix(rng, user, pos, start.plus((secs as f64 * frac) as i64), out);
        }
        start.plus(secs)
    }

    /// One noisy GPS fix.
    fn emit_fix(
        &self,
        rng: &mut StdRng,
        user: UserId,
        pos: GeoPoint,
        ts: Timestamp,
        out: &mut Vec<MobilityTrace>,
    ) {
        let noisy = offset_m(pos, normal(rng, 0.0, 12.0), normal(rng, 0.0, 12.0));
        let altitude = normal(rng, 55.0, 6.0) as f32;
        out.push(MobilityTrace::with_altitude(user, noisy, ts, altitude));
    }

    /// Writes the whole workload into a DFS file, generating blocks of
    /// 1 024 users on every pool thread (`Dfs::put_blocks`). The file is
    /// chunk for chunk the one `put_from_iter(self.stream())` writes, at
    /// any thread count, and memory stays at one chunk plus two waves of
    /// blocks.
    pub fn to_dfs(
        &self,
        dfs: &mut gepeto_mapred::Dfs<MobilityTrace>,
        name: &str,
    ) -> Result<(), gepeto_mapred::DfsError> {
        let gen = |block: usize| {
            let first = block as u64 * INGEST_BLOCK_USERS;
            let end = (first + INGEST_BLOCK_USERS).min(self.users);
            let mut traces =
                Vec::with_capacity((end - first) as usize * self.max_traces_per_user());
            for user in first..end {
                self.emit_user(user as UserId, &mut traces);
            }
            traces
        };
        dfs.put_blocks(name, self.ingest_blocks(), gen, |t| t.approx_plt_bytes())
    }

    /// How many generation blocks [`SynthConfig::to_dfs`] splits the
    /// users into.
    pub fn ingest_blocks(&self) -> usize {
        self.users.div_ceil(INGEST_BLOCK_USERS) as usize
    }
}

/// A user's personal geography, derived from the head of their RNG
/// stream.
struct UserProfile {
    home: GeoPoint,
    work: GeoPoint,
    pois: Vec<GeoPoint>,
}

impl UserProfile {
    fn derive(cfg: &SynthConfig, rng: &mut StdRng) -> Self {
        let c = cfg.city_center;
        // Home: residential ring out to ~12 km.
        let home = offset_m(
            c,
            normal(rng, 0.0, 5_000.0).clamp(-12_000.0, 12_000.0),
            normal(rng, 0.0, 5_000.0).clamp(-12_000.0, 12_000.0),
        );
        // Work: central business district.
        let work = offset_m(c, normal(rng, 0.0, 2_500.0), normal(rng, 0.0, 2_500.0));
        // Leisure POIs scattered around home.
        let n = rng.random_range(2usize..=4);
        let pois = (0..n)
            .map(|_| offset_m(home, normal(rng, 0.0, 1_800.0), normal(rng, 0.0, 1_800.0)))
            .collect();
        Self { home, work, pois }
    }
}

/// The streaming iterator over every user's traces. Owns its
/// configuration, so it can outlive the [`SynthConfig`] that spawned it
/// (e.g. handed to `Dfs::put_from_iter`).
pub struct TraceStream {
    cfg: SynthConfig,
    next_user: u64,
    buf: std::vec::IntoIter<MobilityTrace>,
}

impl Iterator for TraceStream {
    type Item = MobilityTrace;

    fn next(&mut self) -> Option<MobilityTrace> {
        loop {
            if let Some(t) = self.buf.next() {
                return Some(t);
            }
            if self.next_user >= self.cfg.users {
                return None;
            }
            let user = self.next_user as UserId;
            self.next_user += 1;
            self.buf = self.cfg.generate_user(user).into_traces().into_iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.next_user >= self.cfg.users && self.buf.len() == 0 {
            (0, Some(0))
        } else {
            (self.buf.len(), None)
        }
    }
}

/// Urban mode choice by trip length: walk short, cycle medium, drive
/// long.
fn speed_mps(dist_m: f64) -> f64 {
    if dist_m < 900.0 {
        1.35
    } else if dist_m < 3_200.0 {
        4.2
    } else {
        9.5
    }
}

/// Shifts `p` by `(north_m, east_m)` meters.
fn offset_m(p: GeoPoint, north_m: f64, east_m: f64) -> GeoPoint {
    let lat = p.lat + north_m / M_PER_DEG;
    let lon = p.lon + east_m / (M_PER_DEG * p.lat.to_radians().cos());
    GeoPoint::new(lat, lon)
}

/// Linear interpolation between two nearby points.
fn interpolate(a: GeoPoint, b: GeoPoint, frac: f64) -> GeoPoint {
    GeoPoint::new(
        a.lat + (b.lat - a.lat) * frac,
        a.lon + (b.lon - a.lon) * frac,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gepeto_mapred::{Cluster, Dfs};

    fn cfg() -> SynthConfig {
        SynthConfig::new(8).days(2)
    }

    #[test]
    fn stream_concatenates_user_trails_in_order() {
        let c = cfg();
        let streamed: Vec<MobilityTrace> = c.stream().collect();
        let mut expected = Vec::new();
        for u in 0..c.users as UserId {
            expected.extend(c.generate_user(u).into_traces());
        }
        assert_eq!(streamed, expected);
    }

    #[test]
    fn deterministic_per_seed_and_user() {
        let a: Vec<MobilityTrace> = cfg().stream().collect();
        let b: Vec<MobilityTrace> = cfg().stream().collect();
        assert_eq!(a, b);
        let c: Vec<MobilityTrace> = cfg().seed(42).stream().collect();
        assert_ne!(a, c);
        // A user's trail does not depend on how many users exist.
        assert_eq!(
            SynthConfig::new(8).generate_user(3),
            SynthConfig::new(1_000_000).generate_user(3)
        );
    }

    #[test]
    fn trails_are_time_ordered_across_days() {
        for u in 0..4 {
            let trail = cfg().generate_user(u);
            for w in trail.traces().windows(2) {
                assert!(w[0].timestamp <= w[1].timestamp, "user {u} out of order");
            }
            assert!(
                trail.len() >= 2 * 10,
                "user {u} too sparse: {}",
                trail.len()
            );
        }
    }

    #[test]
    fn trace_counts_respect_the_estimates() {
        let c = SynthConfig::new(64);
        let total = c.stream().count() as u64;
        assert!(total <= c.max_traces(), "{total} > {}", c.max_traces());
        let estimate = c.estimated_traces();
        assert!(
            total as f64 > estimate as f64 * 0.5 && (total as f64) < estimate as f64 * 1.5,
            "total {total} vs estimate {estimate}"
        );
    }

    #[test]
    fn estimates_saturate_instead_of_wrapping() {
        let mut c = SynthConfig::new(u64::from(u32::MAX));
        c.days = u32::MAX;
        assert_eq!(c.max_traces(), u64::MAX);
        assert_eq!(c.estimated_plt_bytes(), u64::MAX);
        // The million-user flagship config stays comfortably in range.
        let m = SynthConfig::new(1_000_000);
        assert!((10_000_000..30_000_000).contains(&m.estimated_traces()));
    }

    #[test]
    fn coordinates_stay_near_the_city() {
        let c = cfg();
        for t in c.stream() {
            assert!(t.point.is_valid());
            assert!(
                gepeto_geo::haversine_m(c.city_center, t.point) < 60_000.0,
                "fix strayed {} km from center",
                gepeto_geo::haversine_m(c.city_center, t.point) / 1_000.0
            );
        }
    }

    #[test]
    fn streams_into_dfs_chunks() {
        // The block-parallel ingest writes the serial stream's chunks,
        // around the 1 024-user block edges; 500 traces per chunk.
        let cluster = Cluster::local(3, 2);
        for users in [1, 1023, 1024, 1025, 2049] {
            let c = SynthConfig::new(users).seed(users);
            let mut serial: Dfs<MobilityTrace> = Dfs::new(cluster.topology.clone(), 32_000, 3);
            serial
                .put_from_iter("synth", c.stream(), |t| t.approx_plt_bytes())
                .unwrap();
            let mut blocked = Dfs::new(cluster.topology.clone(), 32_000, 3);
            c.to_dfs(&mut blocked, "synth").unwrap();
            let (ids, blocked_ids) = (
                serial.blocks_of("synth").unwrap(),
                blocked.blocks_of("synth").unwrap(),
            );
            assert_eq!(ids, blocked_ids, "{users} users");
            assert!(users == 1 || ids.len() > 1, "expected multiple chunks");
            for &id in ids {
                let (s, b) = (serial.block(id), blocked.block(id));
                assert_eq!(
                    (&s.data, s.bytes, &s.replicas),
                    (&b.data, b.bytes, &b.replicas),
                    "{users} users, chunk {id}"
                );
                assert_eq!(b.data.capacity(), b.data.len());
            }
            assert_eq!(serial.num_records("synth"), blocked.num_records("synth"));
            assert_eq!(serial.file_bytes("synth"), blocked.file_bytes("synth"));
        }
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        let _ = SynthConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "UserId range")]
    fn oversized_user_count_rejected() {
        let _ = SynthConfig::new(u64::from(u32::MAX) + 1);
    }
}
