//! Per-device noise table: the Kraus channels that follow each kind of
//! gate on each qubit, built and validated once per emulator.
//!
//! Both hardware emulators read their noise from here, so the placement
//! rule lives in one place. After a gate, each qubit it touches gets the
//! gate's Pauli channel (none after a virtual frame change), then
//! amplitude damping, then phase damping, both over the gate's duration
//! (`tq_duration_factor` single-qubit durations for a two-qubit gate).
//! Zero-probability channels are left out. An entry whose channel is
//! invalid keeps its typed error, which surfaces only when a circuit uses
//! that entry — the same circuits fail as when channels were built per
//! gate.

use crate::backend::BackendError;
use crate::device::DeviceModel;
use crate::error_spec::PauliErrorSpec;
use qnat_sim::channel::Channel1;
use qnat_sim::gate::GateKind;

/// The form a table stores its entries in, assembled from Kraus parts:
/// the Pauli channel of a qubit or edge, and the damping sequence of a
/// qubit over one gate duration. Each part is converted once and shared
/// by every entry that uses it.
pub(crate) trait NoiseForm: Sized {
    /// A Pauli channel (none when it never errs) in this form.
    type Pauli;
    /// A damping sequence in this form.
    type Damping;
    /// Converts a Pauli part.
    fn pauli(channel: Option<Channel1>) -> Self::Pauli;
    /// Converts a damping part.
    fn damping(channels: Vec<Channel1>) -> Self::Damping;
    /// The entry for a gate whose Pauli part is followed by this damping.
    fn join(pauli: &Self::Pauli, damping: &Self::Damping) -> Self;
}

/// The channels that follow one gate on one qubit, in application order:
/// the Kraus form.
#[derive(Debug, Clone)]
pub(crate) struct QubitNoise {
    /// The gate's Pauli error channel, if it has one.
    pub pauli: Option<Channel1>,
    /// Amplitude damping, then phase damping, over the gate's duration.
    pub damping: Vec<Channel1>,
}

impl NoiseForm for QubitNoise {
    type Pauli = Option<Channel1>;
    type Damping = Vec<Channel1>;

    fn pauli(channel: Option<Channel1>) -> Self::Pauli {
        channel
    }

    fn damping(channels: Vec<Channel1>) -> Self::Damping {
        channels
    }

    fn join(pauli: &Self::Pauli, damping: &Self::Damping) -> Self {
        QubitNoise {
            pauli: pauli.clone(),
            damping: damping.clone(),
        }
    }
}

/// The Pauli channel of `spec`, or none when it never errs.
fn pauli_channel(spec: PauliErrorSpec) -> Result<Option<Channel1>, BackendError> {
    if spec.total() > 0.0 {
        Ok(Some(Channel1::pauli(spec.p_x, spec.p_y, spec.p_z)?))
    } else {
        Ok(None)
    }
}

/// Amplitude then phase damping of qubit `q` over `duration` single-qubit
/// gate durations.
fn damping_channels(
    model: &DeviceModel,
    q: usize,
    duration: f64,
) -> Result<Vec<Channel1>, BackendError> {
    let ad = (model.amp_damping(q) * duration).min(1.0);
    let pd = (model.phase_damping(q) * duration).min(1.0);
    let mut damping = Vec::with_capacity(2);
    if ad > 0.0 {
        damping.push(Channel1::amplitude_damping(ad)?);
    }
    if pd > 0.0 {
        damping.push(Channel1::phase_damping(pd)?);
    }
    Ok(damping)
}

type Entry<T> = Result<T, BackendError>;

/// Joins two parts into an entry; the Pauli part's error comes first, as
/// the Pauli channel is applied first.
fn join<T: NoiseForm>(pauli: &Entry<T::Pauli>, damping: &Entry<T::Damping>) -> Entry<T> {
    let pauli = pauli.as_ref().map_err(Clone::clone)?;
    let damping = damping.as_ref().map_err(Clone::clone)?;
    Ok(T::join(pauli, damping))
}

/// A two-qubit gate's noise on one coupling edge, per endpoint.
#[derive(Debug, Clone)]
struct EdgeNoise<T> {
    a: usize,
    b: usize,
    on_a: Entry<T>,
    on_b: Entry<T>,
}

/// The noise that follows every gate a device can run, per qubit and per
/// edge, in the form `T` (see [`NoiseForm`]).
#[derive(Debug, Clone)]
pub(crate) struct NoiseTable<T> {
    /// Per qubit, after a virtual gate (RZ/P/identity): damping only.
    virtual_1q: Vec<Entry<T>>,
    /// Per qubit, after a real single-qubit gate.
    real_1q: Vec<Entry<T>>,
    /// Per coupling edge, after a two-qubit gate on it.
    edges: Vec<EdgeNoise<T>>,
    /// Per qubit, after a two-qubit gate on an uncoupled pair (worst edge
    /// spec).
    uncoupled: Vec<Entry<T>>,
}

impl<T: NoiseForm> NoiseTable<T> {
    /// Builds and validates every channel of `model` once, and converts
    /// each to the form `T` once.
    pub fn new(model: &DeviceModel) -> Self {
        let n = model.n_qubits();
        let tq = model.tq_duration_factor();
        let pauli = |spec| pauli_channel(spec).map(T::pauli);
        let damping = |q, duration| damping_channels(model, q, duration).map(T::damping);
        let damping_1q: Vec<_> = (0..n).map(|q| damping(q, 1.0)).collect();
        let damping_2q: Vec<_> = (0..n).map(|q| damping(q, tq)).collect();
        let none = Ok(T::pauli(None));
        let worst = pauli(model.uncoupled_two_qubit_error());
        NoiseTable {
            virtual_1q: damping_1q.iter().map(|d| join(&none, d)).collect(),
            real_1q: (0..n)
                .map(|q| join(&pauli(model.single_qubit_error(q)), &damping_1q[q]))
                .collect(),
            edges: model
                .edge_errors()
                .iter()
                .map(|e| {
                    let p = pauli(e.spec);
                    EdgeNoise {
                        a: e.a,
                        b: e.b,
                        on_a: join(&p, &damping_2q[e.a]),
                        on_b: join(&p, &damping_2q[e.b]),
                    }
                })
                .collect(),
            uncoupled: damping_2q.iter().map(|d| join(&worst, d)).collect(),
        }
    }
}

fn get<T>(entry: &Entry<T>) -> Result<&T, BackendError> {
    entry.as_ref().map_err(Clone::clone)
}

impl<T> NoiseTable<T> {
    /// The noise after a single-qubit gate of `kind` on qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns the entry's [`BackendError::InvalidChannel`] if its channel
    /// is invalid.
    pub fn one(&self, kind: GateKind, q: usize) -> Result<&T, BackendError> {
        if DeviceModel::is_virtual(kind) {
            get(&self.virtual_1q[q])
        } else {
            get(&self.real_1q[q])
        }
    }

    /// The noise on `a` and on `b` after a two-qubit gate on `(a, b)`:
    /// the first listed edge joining them, else the uncoupled fallback.
    ///
    /// # Errors
    ///
    /// Returns the first invalid entry's [`BackendError::InvalidChannel`].
    pub fn two(&self, a: usize, b: usize) -> Result<(&T, &T), BackendError> {
        let (on_a, on_b) = match self
            .edges
            .iter()
            .find(|e| (e.a, e.b) == (a, b) || (e.b, e.a) == (a, b))
        {
            Some(e) if e.a == a => (&e.on_a, &e.on_b),
            Some(e) => (&e.on_b, &e.on_a),
            None => (&self.uncoupled[a], &self.uncoupled[b]),
        };
        Ok((get(on_a)?, get(on_b)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validated device models cannot yield an invalid channel today, so
    /// the error path is pinned on a hand-built table: an invalid entry
    /// fails exactly the lookups that use it.
    #[test]
    fn invalid_entry_surfaces_only_where_used() {
        let bad = || {
            Err(BackendError::InvalidChannel {
                reason: "test".into(),
            })
        };
        let table: NoiseTable<u8> = NoiseTable {
            virtual_1q: vec![Ok(0), bad(), Ok(0)],
            real_1q: vec![Ok(1), Ok(2), Ok(1)],
            edges: vec![EdgeNoise {
                a: 0,
                b: 1,
                on_a: Ok(3),
                on_b: bad(),
            }],
            uncoupled: vec![Ok(4), Ok(5), Ok(6)],
        };
        assert_eq!(table.one(GateKind::Sx, 1), Ok(&2));
        assert!(table.one(GateKind::Rz, 1).is_err());
        assert_eq!(table.one(GateKind::Rz, 0), Ok(&0));
        assert!(table.two(1, 0).is_err());
        assert_eq!(table.two(2, 0), Ok((&6, &4)));
    }
}
