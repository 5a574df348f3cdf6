//! Workload inputs: a Table-3 profile's rows and change history, with
//! the initial rows permuted by the run's seed.
//!
//! The profile keeps its own Table-3 seed, so every seed replays the same
//! column mix and FD landscape. Re-seeding the profile itself would change
//! the workload, not just its inputs: the column mix, the burst contents
//! and with them the cover sizes and validation counts all move, which is
//! a workload effect no run-to-run bound can absorb. A row permutation
//! changes what the program sees (record ids, PLI cluster order, HyFD's
//! samples, the witness pairs kept for validation pruning) while the
//! minimal FDs stay those of the profile.

use dynfd_common::{RecordId, Schema};
use dynfd_datagen::{DatasetProfile, GeneratedDataset, PAPER_PROFILES};
use dynfd_relation::{Batch, ChangeOp};

/// The generated inputs of one relation.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Relation schema.
    pub schema: Schema,
    /// Initial rows, permuted by the seed.
    pub rows: Vec<Vec<String>>,
    /// The replayed change prefix, chunked into batches.
    pub batches: Vec<Batch>,
    /// Changes in `batches`.
    pub changes: usize,
    /// Changes per batch (the last batch may be shorter).
    pub batch_size: usize,
}

/// The Table-3 profile called `name`.
pub fn profile(name: &str) -> DatasetProfile {
    PAPER_PROFILES
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no Table-3 profile named {name}"))
        .clone()
}

/// Generates the first `limit` changes of `profile`'s history.
///
/// The generator draws every change from one random stream and consults
/// the profile's length only to place its dirty bursts, evenly spread
/// over the whole history. When no burst starts inside the prefix, a
/// burst-free profile of length `limit` yields exactly the same prefix
/// without materializing the rest (for `disease`, 20,000 of 361,828
/// changes), which keeps the generator's memory out of the peak RSS the
/// benchmark reports.
pub fn generate_prefix(profile: &DatasetProfile, limit: usize) -> GeneratedDataset {
    let first_burst = profile.changes / (profile.bursts + 1);
    let mut p = profile.clone();
    if limit < p.changes && (p.bursts == 0 || limit <= first_burst) {
        p.changes = limit;
        p.bursts = 0;
    }
    let mut data = GeneratedDataset::generate(&p);
    data.changes.truncate(limit);
    data
}

/// SplitMix64 step: the seed stream for the row permutation.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `data` with its initial rows permuted by `seed` (and the change
/// history's record ids remapped to match), chunked into `batch_size`
/// batches.
pub fn permuted(data: &GeneratedDataset, batch_size: usize, seed: u64) -> Inputs {
    let n = data.initial_rows.len();
    // Fisher-Yates: position `i` of the permuted table holds original row `order[i]`.
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut new_id = vec![0u64; n];
    for (pos, &orig) in order.iter().enumerate() {
        new_id[orig] = pos as u64;
    }
    // Initial rows get ids 0..n in table order; later versions keep the
    // ids the generator assigned, since they follow the same sequence.
    let remap = |rid: RecordId| match usize::try_from(rid.0) {
        Ok(i) if i < n => RecordId(new_id[i]),
        _ => rid,
    };
    let changes: Vec<ChangeOp> = data
        .changes
        .iter()
        .map(|op| match op {
            ChangeOp::Delete(rid) => ChangeOp::Delete(remap(*rid)),
            ChangeOp::Update(rid, row) => ChangeOp::Update(remap(*rid), row.clone()),
            ChangeOp::Insert(row) => ChangeOp::Insert(row.clone()),
        })
        .collect();
    Inputs {
        schema: data.schema.clone(),
        rows: order
            .iter()
            .map(|&i| data.initial_rows[i].clone())
            .collect(),
        changes: changes.len(),
        batches: Batch::chunk(changes, batch_size),
        batch_size,
    }
}
