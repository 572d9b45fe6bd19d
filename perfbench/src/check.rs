//! Answers computed apart from the solver: published sequences, the
//! benchmark's own readers of the instance files, and brute-force
//! searches. Nothing here calls into the workspace's crates.

/// OEIS A000170: solutions of the n-queens problem, n = 0, 1, 2, ...
pub const QUEENS_A000170: [u64; 15] = [
    1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724, 2680, 14200, 73712, 365596,
];

/// OEIS A003022: length of the shortest Golomb ruler with n marks,
/// n = 1, 2, ...
#[cfg(test)]
const GOLOMB_A003022: [i64; 7] = [0, 1, 3, 6, 11, 17, 25];

/// The repository's QAPLIB-format `esc16e` stand-in, read as text.
pub const ESC16E_DAT: &str = include_str!("../../crates/problems/src/data/esc16e.dat");

/// The DIMACS `myciel3` graph the service's colouring class uses.
pub const MYCIEL3_COL: &str = include_str!("../../crates/problems/src/data/myciel3.col");

/// A QAP instance as flow and distance matrices, row-major.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Qap {
    pub n: usize,
    pub flow: Vec<i64>,
    pub dist: Vec<i64>,
}

impl Qap {
    /// Read QAPLIB text: `n`, then the flow and the distance matrix.
    pub fn parse(text: &str) -> Result<Qap, String> {
        let mut it = text.split_whitespace().map(|t| {
            t.parse::<i64>()
                .map_err(|e| format!("bad integer {t:?}: {e}"))
        });
        let n = it.next().ok_or("empty QAPLIB text")??;
        let n = usize::try_from(n)
            .ok()
            .filter(|n| (1..=64).contains(n))
            .ok_or(format!("unsupported QAP size {n}"))?;
        let mut matrix = || -> Result<Vec<i64>, String> {
            (0..n * n)
                .map(|_| it.next().ok_or("QAPLIB matrix truncated".to_string())?)
                .collect()
        };
        let flow = matrix()?;
        let dist = matrix()?;
        Ok(Qap { n, flow, dist })
    }

    /// The leading `k × k` block: facilities and locations `0..k`.
    pub fn leading(&self, k: usize) -> Qap {
        assert!(k <= self.n);
        let block = |m: &[i64]| {
            (0..k)
                .flat_map(|i| (0..k).map(move |j| m[i * self.n + j]))
                .collect()
        };
        Qap {
            n: k,
            flow: block(&self.flow),
            dist: block(&self.dist),
        }
    }

    /// Cost of facility `i` at location `perm[i]`, if `perm` is a
    /// permutation of `0..n`.
    pub fn cost(&self, perm: &[i64]) -> Option<i64> {
        let n = self.n;
        let mut seen = vec![false; n];
        if perm.len() != n {
            return None;
        }
        for &p in perm {
            let p = usize::try_from(p).ok().filter(|&p| p < n)?;
            if std::mem::replace(&mut seen[p], true) {
                return None;
            }
        }
        let mut c = 0;
        for i in 0..n {
            for j in 0..n {
                c += self.flow[i * n + j] * self.dist[perm[i] as usize * n + perm[j] as usize];
            }
        }
        Some(c)
    }

    /// The optimum over all n! permutations. Flows and distances are
    /// non-negative, so a partial assignment whose cost already reaches the
    /// best complete one cannot lead to a better one and is skipped.
    pub fn optimum(&self) -> i64 {
        assert!(
            self.flow.iter().chain(&self.dist).all(|&x| x >= 0),
            "the pruned enumeration needs non-negative matrices"
        );
        let mut best = i64::MAX;
        let mut perm = Vec::with_capacity(self.n);
        let mut used = vec![false; self.n];
        self.extend(&mut perm, &mut used, 0, &mut best);
        best
    }

    fn extend(&self, perm: &mut Vec<usize>, used: &mut [bool], partial: i64, best: &mut i64) {
        let n = self.n;
        let i = perm.len();
        if i == n {
            *best = (*best).min(partial);
            return;
        }
        for loc in 0..n {
            if used[loc] {
                continue;
            }
            // Cost added by placing facility i at loc against facilities
            // already placed (both directions) and itself.
            let mut add = self.flow[i * n + i] * self.dist[loc * n + loc];
            for (j, &pj) in perm.iter().enumerate() {
                add += self.flow[i * n + j] * self.dist[loc * n + pj]
                    + self.flow[j * n + i] * self.dist[pj * n + loc];
            }
            if partial + add >= *best {
                continue;
            }
            used[loc] = true;
            perm.push(loc);
            self.extend(perm, used, partial + add, best);
            perm.pop();
            used[loc] = false;
        }
    }
}

/// Vertices and 0-based edges of a DIMACS `.col` graph.
pub fn parse_col(text: &str) -> Result<(usize, Vec<(usize, usize)>), String> {
    let mut n = None;
    let mut edges = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["p", _, v, _] => n = Some(v.parse::<usize>().map_err(|e| e.to_string())?),
            ["e", u, v] => {
                let u = u.parse::<usize>().map_err(|e| e.to_string())?;
                let v = v.parse::<usize>().map_err(|e| e.to_string())?;
                if u == 0 || v == 0 {
                    return Err(format!("vertex 0 in edge {u} {v}"));
                }
                edges.push((u - 1, v - 1));
            }
            _ => {}
        }
    }
    let n = n.ok_or("no problem line")?;
    if edges.iter().any(|&(u, v)| u >= n || v >= n) {
        return Err("edge endpoint beyond the vertex count".into());
    }
    Ok((n, edges))
}

/// Number of proper `k`-colourings, by trying all k^n assignments.
pub fn count_colourings(n: usize, edges: &[(usize, usize)], k: u32) -> u64 {
    let total = (k as u64).pow(n as u32);
    let mut colour = vec![0u32; n];
    let mut count = 0;
    for _ in 0..total {
        if edges.iter().all(|&(u, v)| colour[u] != colour[v]) {
            count += 1;
        }
        // Odometer step to the next assignment.
        for c in colour.iter_mut() {
            *c += 1;
            if *c < k {
                break;
            }
            *c = 0;
        }
    }
    count
}

/// A shortest Golomb ruler with `n` marks, found by trying every length
/// from 0 up: marks from 0 to the length, all pairwise differences
/// distinct.
pub fn shortest_golomb(n: usize) -> Vec<i64> {
    assert!(n >= 1);
    (0i64..)
        .find_map(|len| {
            let mut marks = vec![0];
            let mut used = vec![false; len as usize + 1];
            place_marks(n, len, &mut marks, &mut used).then_some(marks)
        })
        .expect("some length fits")
}

fn place_marks(n: usize, len: i64, marks: &mut Vec<i64>, used: &mut [bool]) -> bool {
    let placed = marks.len();
    if placed == n {
        return *marks.last().expect("mark 0") == len;
    }
    let last = *marks.last().expect("mark 0");
    // The last mark sits at `len`; the others leave room for the rest.
    let (lo, hi) = if placed == n - 1 {
        (len.max(last + 1), len)
    } else {
        (last + 1, len - (n - placed - 1) as i64)
    };
    for m in lo..=hi {
        let diffs: Vec<usize> = marks.iter().map(|&x| (m - x) as usize).collect();
        if diffs.iter().any(|&d| used[d]) {
            continue;
        }
        for &d in &diffs {
            used[d] = true;
        }
        marks.push(m);
        if place_marks(n, len, marks, used) {
            return true;
        }
        marks.pop();
        for &d in &diffs {
            used[d] = false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_facility_qap_worked_by_hand() {
        // Flows 0-1: 2, 1-2: 3 (symmetric); locations on a line 0-1-2.
        let q = Qap {
            n: 3,
            flow: vec![0, 2, 0, 2, 0, 3, 0, 3, 0],
            dist: vec![0, 1, 2, 1, 0, 1, 2, 1, 0],
        };
        // Facility 1 in the middle: 2*1*2 + 3*1*2 = 10.
        assert_eq!(q.cost(&[0, 1, 2]), Some(10));
        // Facility 1 at an end: (2*1 + 3*2)*2 = 16 or (2*2 + 3*1)*2 = 14.
        assert_eq!(q.cost(&[1, 0, 2]), Some(16));
        assert_eq!(q.cost(&[2, 0, 1]), Some(14));
        assert_eq!(q.optimum(), 10);
        assert_eq!(q.cost(&[0, 0, 2]), None, "not a permutation");
        assert_eq!(q.cost(&[0, 1, 3]), None, "location out of range");
        assert_eq!(q.cost(&[0, 1]), None, "too short");
    }

    #[test]
    fn qaplib_text_and_leading_block() {
        let q = Qap::parse("2\n0 5\n5 0\n\n0 1\n1 0\n").unwrap();
        assert_eq!(q.cost(&[1, 0]), Some(10));
        assert_eq!(q.leading(1).flow, vec![0]);
        assert!(Qap::parse("2\n0 5 5").is_err());
        assert!(Qap::parse("-1").is_err());
        let esc = Qap::parse(ESC16E_DAT).unwrap();
        assert_eq!(esc.n, 16);
        assert_eq!(esc.leading(10).n, 10);
    }

    #[test]
    fn triangle_has_k_k1_k2_colourings() {
        let tri = [(0, 1), (1, 2), (0, 2)];
        for k in 1..=5u64 {
            assert_eq!(
                count_colourings(3, &tri, k as u32),
                k * (k - 1) * k.saturating_sub(2)
            );
        }
    }

    #[test]
    fn myciel3_is_read_and_needs_four_colours() {
        let (n, edges) = parse_col(MYCIEL3_COL).unwrap();
        assert_eq!((n, edges.len()), (11, 20));
        assert_eq!(count_colourings(n, &edges, 3), 0);
        assert!(count_colourings(n, &edges, 4) > 0);
    }

    #[test]
    fn shortest_golomb_rulers() {
        // By hand: 0 1 4 6 has differences 1 2 3 4 5 6, and no 4-mark
        // ruler of length 5 exists (it would need the 6 differences 1..=5).
        assert_eq!(shortest_golomb(4), vec![0, 1, 4, 6]);
        assert_eq!(shortest_golomb(1), vec![0]);
        for n in 1..=7 {
            let r = shortest_golomb(n);
            assert_eq!(r.len(), n);
            assert_eq!(
                *r.last().unwrap(),
                GOLOMB_A003022[n - 1],
                "A003022 for {n} marks"
            );
        }
    }

    #[test]
    fn queens_counts_are_a000170() {
        assert_eq!(QUEENS_A000170[8], 92);
        assert_eq!(QUEENS_A000170[12], 14_200);
        assert_eq!(QUEENS_A000170[13], 73_712);
    }
}
