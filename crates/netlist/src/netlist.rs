//! The gate-level netlist arena: nets, gates, flip-flops, and validation.

use std::fmt;
use std::fmt::Write as _;

use crate::gate::GateType;
use crate::names::Names;

/// Identifier of a net (a named signal) inside one [`Netlist`].
///
/// `NetId`s are dense indices; they are only meaningful relative to the
/// netlist that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Returns the raw dense index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a combinational gate inside one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Returns the raw dense index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Identifier of a D flip-flop inside one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DffId(pub(crate) u32);

impl DffId {
    /// Returns the raw dense index of this flip-flop.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DffId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ff{}", self.0)
    }
}

/// A combinational gate instance: a type, ordered input nets, one output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The logic function of the gate.
    pub gtype: GateType,
    /// Ordered fan-in nets (order matters for `MUX`).
    pub inputs: Vec<NetId>,
    /// The single output net driven by this gate.
    pub output: NetId,
}

/// A D flip-flop: on each clock the value on `d` is transferred to `q`.
///
/// In the ReBERT formulation the **bits** of a design are exactly the `d`
/// nets of its flip-flops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dff {
    /// Data input net (the "bit" signal).
    pub d: NetId,
    /// State output net.
    pub q: NetId,
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Driven from outside the circuit.
    PrimaryInput,
    /// Driven by the output of a combinational gate.
    Gate(GateId),
    /// Driven by the `q` output of a flip-flop.
    Dff(DffId),
    /// Constant logic zero.
    ConstZero,
    /// Constant logic one.
    ConstOne,
}

/// A gate-level netlist: an arena of named nets, combinational gates, and
/// D flip-flops, with declared primary inputs and outputs.
///
/// Construction is incremental through the `add_*` methods; structural
/// invariants (single driver per net, legal gate arities, acyclic
/// combinational logic) are enforced eagerly where cheap and by
/// [`Netlist::validate`] for the global properties.
///
/// # Examples
///
/// ```
/// use rebert_netlist::{GateType, Netlist};
///
/// let mut nl = Netlist::new("toy");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let s = nl.add_net("s");
/// nl.add_gate(GateType::Xor, vec![a, b], s).unwrap();
/// let q = nl.add_net("q");
/// nl.add_dff(s, q).unwrap();
/// nl.add_output(s);
/// assert!(nl.validate().is_ok());
/// assert_eq!(nl.bits().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    /// Net names, each stored once, with the name → net table.
    names: Names,
    drivers: Vec<Driver>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    /// Whether each net has an explicit driver attached.
    driven: Vec<bool>,
}

/// Error produced when building or validating a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net name was declared twice.
    DuplicateNet(String),
    /// A net already has a driver and a second was added.
    MultipleDrivers(String),
    /// A gate was given an illegal number of inputs.
    BadArity {
        /// The offending gate type.
        gtype: GateType,
        /// Number of inputs supplied.
        got: usize,
    },
    /// A net is read or written that does not belong to this netlist.
    UnknownNet(NetId),
    /// A net has no driver after construction finished.
    Undriven(String),
    /// The combinational logic contains a cycle through the named net.
    CombinationalCycle(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateNet(n) => write!(f, "duplicate net `{n}`"),
            NetlistError::MultipleDrivers(n) => write!(f, "net `{n}` has multiple drivers"),
            NetlistError::BadArity { gtype, got } => {
                write!(f, "gate {gtype} cannot take {got} inputs")
            }
            NetlistError::UnknownNet(id) => write!(f, "net {id} does not exist"),
            NetlistError::Undriven(n) => write!(f, "net `{n}` has no driver"),
            NetlistError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net `{n}`")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            names: Names::default(),
            drivers: Vec::new(),
            gates: Vec::new(),
            dffs: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            driven: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets in the netlist.
    pub fn net_count(&self) -> usize {
        self.names.len()
    }

    /// Number of combinational gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Declared primary inputs, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Declared primary outputs, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// All gates, indexable by [`GateId::index`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops, indexable by [`DffId::index`].
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Looks up a gate by id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a flip-flop by id.
    pub fn dff(&self, id: DffId) -> &Dff {
        &self.dffs[id.index()]
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn net_name(&self, id: NetId) -> &str {
        self.names.get(id.index())
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.names.find(name).map(NetId)
    }

    /// What drives the given net.
    pub fn driver(&self, id: NetId) -> Driver {
        self.drivers[id.index()]
    }

    /// Iterates over `(NetId, &str)` for all nets.
    pub fn iter_nets(&self) -> impl Iterator<Item = (NetId, &str)> {
        (0..self.names.len()).map(|i| (NetId(i as u32), self.names.get(i)))
    }

    /// Adds a fresh undriven net.
    ///
    /// If `name` is already taken, the first free `{name}_{i}` (`i` = 1,
    /// 2, ...) is used instead, so the returned id always denotes a
    /// brand-new net.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        let name = name.as_ref();
        let (mut id, mut added) = self.net_named(name);
        let mut cand = String::new();
        let mut i = 1usize;
        while !added {
            cand.clear();
            write!(cand, "{name}_{i}").expect("writing to a String cannot fail");
            (id, added) = self.net_named(&cand);
            i += 1;
        }
        id
    }

    /// The net named `name`, and whether this call created it: a fresh
    /// undriven net with exactly that name when none has it. One lookup
    /// in the name table either way.
    pub(crate) fn net_named(&mut self, name: &str) -> (NetId, bool) {
        let (id, added) = self.names.intern(name);
        if added {
            // Placeholder; a real driver must be attached before
            // validate(). `driven` distinguishes "not yet driven" from an
            // explicit constant.
            self.drivers.push(Driver::ConstZero);
            self.driven.push(false);
        }
        (NetId(id), added)
    }

    /// Declares a primary input and returns its net.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> NetId {
        let id = self.add_net(name);
        self.drivers[id.index()] = Driver::PrimaryInput;
        self.driven[id.index()] = true;
        self.primary_inputs.push(id);
        id
    }

    /// Creates a constant-driven net (`value` = the constant).
    pub fn add_const(&mut self, name: impl AsRef<str>, value: bool) -> NetId {
        let id = self.add_net(name);
        self.drivers[id.index()] = if value {
            Driver::ConstOne
        } else {
            Driver::ConstZero
        };
        self.driven[id.index()] = true;
        id
    }

    /// Marks an existing net as a primary output.
    pub fn add_output(&mut self, net: NetId) {
        self.primary_outputs.push(net);
    }

    /// Turns an existing *undriven* net into a primary input.
    ///
    /// Used by netlist-to-netlist translations (e.g. [`crate::binarize`])
    /// that first mirror all net names and then re-attach drivers.
    ///
    /// # Panics
    ///
    /// Panics if the net is already driven or does not exist.
    pub fn promote_to_input(&mut self, net: NetId) {
        assert!(net.index() < self.net_count(), "unknown net {net}");
        assert!(
            !self.driven[net.index()],
            "net `{}` is already driven",
            self.net_name(net)
        );
        self.drivers[net.index()] = Driver::PrimaryInput;
        self.driven[net.index()] = true;
        self.primary_inputs.push(net);
    }

    /// Turns an existing *undriven* net into a constant.
    ///
    /// # Panics
    ///
    /// Panics if the net is already driven or does not exist.
    pub fn promote_to_const(&mut self, net: NetId, value: bool) {
        assert!(net.index() < self.net_count(), "unknown net {net}");
        assert!(
            !self.driven[net.index()],
            "net `{}` is already driven",
            self.net_name(net)
        );
        self.drivers[net.index()] = if value {
            Driver::ConstOne
        } else {
            Driver::ConstZero
        };
        self.driven[net.index()] = true;
    }

    /// Adds a combinational gate driving `output`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] for an illegal input count,
    /// [`NetlistError::UnknownNet`] if any net id is foreign, and
    /// [`NetlistError::MultipleDrivers`] if `output` is already driven.
    pub fn add_gate(
        &mut self,
        gtype: GateType,
        inputs: Vec<NetId>,
        output: NetId,
    ) -> Result<GateId, NetlistError> {
        if !gtype.arity_ok(inputs.len()) {
            return Err(NetlistError::BadArity {
                gtype,
                got: inputs.len(),
            });
        }
        for &n in inputs.iter().chain(std::iter::once(&output)) {
            if n.index() >= self.net_count() {
                return Err(NetlistError::UnknownNet(n));
            }
        }
        if self.driven[output.index()] {
            return Err(NetlistError::MultipleDrivers(
                self.net_name(output).to_owned(),
            ));
        }
        let id = GateId(self.gates.len() as u32);
        self.drivers[output.index()] = Driver::Gate(id);
        self.driven[output.index()] = true;
        self.gates.push(Gate {
            gtype,
            inputs,
            output,
        });
        Ok(id)
    }

    /// Convenience: adds a gate with a freshly created output net and
    /// returns that net.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_gate_new_net(
        &mut self,
        gtype: GateType,
        inputs: Vec<NetId>,
        name: impl AsRef<str>,
    ) -> Result<NetId, NetlistError> {
        let out = self.add_net(name);
        self.add_gate(gtype, inputs, out)?;
        Ok(out)
    }

    /// Adds a D flip-flop with data input `d` driving state output `q`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] for foreign ids and
    /// [`NetlistError::MultipleDrivers`] if `q` is already driven.
    pub fn add_dff(&mut self, d: NetId, q: NetId) -> Result<DffId, NetlistError> {
        for &n in &[d, q] {
            if n.index() >= self.net_count() {
                return Err(NetlistError::UnknownNet(n));
            }
        }
        if self.driven[q.index()] {
            return Err(NetlistError::MultipleDrivers(self.net_name(q).to_owned()));
        }
        let id = DffId(self.dffs.len() as u32);
        self.drivers[q.index()] = Driver::Dff(id);
        self.driven[q.index()] = true;
        self.dffs.push(Dff { d, q });
        Ok(id)
    }

    /// The **bits** of the design, in flip-flop declaration order: the data
    /// input net of every flip-flop. This is the ReBERT definition — bits
    /// are "signals feeding into sequential components".
    pub fn bits(&self) -> Vec<NetId> {
        self.dffs.iter().map(|ff| ff.d).collect()
    }

    /// Replaces the logic of gate `id` in place. Used by the corruption
    /// engine for 1-for-1 template substitution when arities match.
    ///
    /// # Panics
    ///
    /// Panics if the new arity is illegal for `gtype`.
    pub fn replace_gate_logic(&mut self, id: GateId, gtype: GateType, inputs: Vec<NetId>) {
        assert!(gtype.arity_ok(inputs.len()));
        let g = &mut self.gates[id.index()];
        g.gtype = gtype;
        g.inputs = inputs;
    }

    /// Checks global structural invariants:
    ///
    /// * every net that is consumed by a gate, flip-flop, or primary output
    ///   has a driver;
    /// * the combinational gate graph is acyclic (flip-flops legally break
    ///   cycles).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant. Lint passes that want the
    /// full list use [`Netlist::validate_all`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        match self.validate_all().into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Collects **every** violated structural invariant instead of
    /// stopping at the first: all undriven-but-consumed nets (in net
    /// declaration order) followed by one
    /// [`NetlistError::CombinationalCycle`] per distinct combinational
    /// cycle. An empty vector means the netlist is valid.
    pub fn validate_all(&self) -> Vec<NetlistError> {
        let mut errors: Vec<NetlistError> = self
            .undriven_nets()
            .into_iter()
            .map(|n| NetlistError::Undriven(self.net_name(n).to_owned()))
            .collect();
        for cycle in self.combinational_cycles() {
            let name = cycle
                .first()
                .map(|&n| self.net_name(n).to_owned())
                .unwrap_or_default();
            errors.push(NetlistError::CombinationalCycle(name));
        }
        errors
    }

    /// Whether the net has an explicit driver attached. Undriven nets
    /// report a placeholder [`Driver::ConstZero`] from
    /// [`Netlist::driver`]; this distinguishes that placeholder from a
    /// real constant.
    pub fn is_driven(&self, id: NetId) -> bool {
        self.driven[id.index()]
    }

    /// Every net that a gate, flip-flop or primary output reads but
    /// nothing drives, in net declaration order.
    pub fn undriven_nets(&self) -> Vec<NetId> {
        let mut consumed = vec![false; self.net_count()];
        for g in &self.gates {
            for &n in &g.inputs {
                consumed[n.index()] = true;
            }
        }
        for ff in &self.dffs {
            consumed[ff.d.index()] = true;
        }
        for &n in &self.primary_outputs {
            consumed[n.index()] = true;
        }
        (0..self.net_count())
            .filter(|&i| consumed[i] && !self.driven[i])
            .map(|i| NetId(i as u32))
            .collect()
    }

    /// Which nets are live, indexed by [`NetId::index`]: those a backward
    /// sweep through gate drivers reaches from any flip-flop data input
    /// or primary output. A gate is live iff its output net is; every
    /// other gate is dead logic that no bit or output observes.
    pub fn live_nets(&self) -> Vec<bool> {
        let mut live = vec![false; self.net_count()];
        let mut stack: Vec<NetId> = self.dffs.iter().map(|ff| ff.d).collect();
        stack.extend_from_slice(&self.primary_outputs);
        while let Some(net) = stack.pop() {
            if std::mem::replace(&mut live[net.index()], true) {
                continue;
            }
            if let Driver::Gate(gid) = self.drivers[net.index()] {
                stack.extend_from_slice(&self.gates[gid.index()].inputs);
            }
        }
        live
    }

    /// Returns the gates in a topological order of the combinational graph
    /// (inputs before the gates that read them). Flip-flop outputs and
    /// primary inputs are sources.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if no such order exists.
    pub fn topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        let mut fanout = Fanout::of(self);
        let order = fanout.drain();
        if order.len() != self.gates.len() {
            let culprit = fanout
                .indegree
                .iter()
                .position(|&d| d > 0)
                .map(|gi| self.net_name(self.gates[gi].output).to_owned())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle(culprit));
        }
        Ok(order.into_iter().map(GateId).collect())
    }

    /// Every distinct combinational cycle as a full net path: the output
    /// nets of the gates along the cycle, in feed order (each net is an
    /// input to the gate driving the next entry; the last feeds the
    /// first). An acyclic netlist yields an empty vector.
    ///
    /// Two cycles sharing a gate are reported as one path — the goal is a
    /// human-readable witness for every cyclic region, not an enumeration
    /// of all simple cycles (which can be exponential).
    pub fn combinational_cycles(&self) -> Vec<Vec<NetId>> {
        let n = self.gates.len();
        // Kahn's algorithm; gates left with a positive indegree are the
        // cyclic core plus its downstream cone.
        let mut fanout = Fanout::of(self);
        if fanout.drain().len() == n {
            return Vec::new();
        }
        let stuck = |g: usize| fanout.indegree[g] > 0;
        // DFS restricted to stuck gates with an explicit stack; a grey
        // (on-path) neighbour closes a cycle. Blackened gates are never
        // revisited, so each cyclic region yields one witness path.
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; n];
        let mut cycles = Vec::new();
        for root in 0..n {
            if !stuck(root) || color[root] != WHITE {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            let mut path: Vec<usize> = vec![root];
            color[root] = GREY;
            while !stack.is_empty() {
                let (g, next) = *stack.last().expect("stack is non-empty");
                if let Some(&r) = fanout.readers(g).get(next) {
                    stack.last_mut().expect("stack is non-empty").1 += 1;
                    let r = r as usize;
                    if !stuck(r) {
                        continue;
                    }
                    match color[r] {
                        WHITE => {
                            color[r] = GREY;
                            stack.push((r, 0));
                            path.push(r);
                        }
                        GREY => {
                            let from = path.iter().position(|&p| p == r).expect("grey is on path");
                            cycles.push(
                                path[from..]
                                    .iter()
                                    .map(|&gi| self.gates[gi].output)
                                    .collect(),
                            );
                        }
                        _ => {}
                    }
                } else {
                    color[g] = BLACK;
                    stack.pop();
                    path.pop();
                }
            }
        }
        cycles
    }
}

/// Fan-out of the combinational gate graph in one flat layout: the
/// gates reading gate `g`'s output are `readers[offsets[g]..offsets[g + 1]]`,
/// in gate order, once per input they read it on.
struct Fanout {
    offsets: Vec<u32>,
    readers: Vec<u32>,
    /// Per gate, its inputs driven by a gate; [`Fanout::drain`] counts
    /// them down.
    indegree: Vec<u32>,
}

impl Fanout {
    fn of(nl: &Netlist) -> Fanout {
        let n = nl.gates.len();
        // Count each source's readers, sum them into end offsets, then
        // fill backwards so every offset steps down to its start.
        let mut offsets = vec![0u32; n + 1];
        let mut indegree = vec![0u32; n];
        // The gates driving gate `gi`'s inputs, once per input.
        let gate_sources = |gi: usize| {
            nl.gates[gi]
                .inputs
                .iter()
                .filter_map(|&inp| match nl.drivers[inp.index()] {
                    Driver::Gate(src) => Some(src.index()),
                    _ => None,
                })
        };
        for (gi, degree) in indegree.iter_mut().enumerate() {
            for src in gate_sources(gi) {
                offsets[src] += 1;
                *degree += 1;
            }
        }
        let mut total = 0u32;
        for o in &mut offsets {
            total += *o;
            *o = total;
        }
        let mut readers = vec![0u32; total as usize];
        for gi in (0..n).rev() {
            for src in gate_sources(gi).rev() {
                offsets[src] -= 1;
                readers[offsets[src] as usize] = gi as u32;
            }
        }
        Fanout {
            offsets,
            readers,
            indegree,
        }
    }

    fn readers(&self, g: usize) -> &[u32] {
        &self.readers[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Kahn's algorithm: the gates in topological order. Gates on or
    /// downstream of a cycle are left out, with a positive indegree.
    fn drain(&mut self) -> Vec<u32> {
        let n = self.indegree.len();
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&g| self.indegree[g as usize] == 0)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head] as usize;
            head += 1;
            for i in self.offsets[g]..self.offsets[g + 1] {
                let r = self.readers[i as usize] as usize;
                self.indegree[r] -= 1;
                if self.indegree[r] == 0 {
                    queue.push(r as u32);
                }
            }
        }
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_ff_toy() -> Netlist {
        let mut nl = Netlist::new("toy");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_net("s");
        nl.add_gate(GateType::Xor, vec![a, b], s).unwrap();
        let q = nl.add_net("q");
        nl.add_dff(s, q).unwrap();
        nl.add_output(s);
        nl
    }

    #[test]
    fn build_and_validate() {
        let nl = xor_ff_toy();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.dff_count(), 1);
        assert_eq!(nl.bits(), vec![nl.find_net("s").unwrap()]);
    }

    #[test]
    fn duplicate_names_are_uniquified() {
        let mut nl = Netlist::new("d");
        let a = nl.add_net("x");
        let b = nl.add_net("x");
        assert_ne!(a, b);
        assert_ne!(nl.net_name(a), nl.net_name(b));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let o = nl.add_net("o");
        nl.add_gate(GateType::And, vec![a, b], o).unwrap();
        let err = nl.add_gate(GateType::Or, vec![a, b], o).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers(_)));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let o = nl.add_net("o");
        let err = nl.add_gate(GateType::And, vec![a], o).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn undriven_consumed_net_detected() {
        let mut nl = Netlist::new("u");
        let a = nl.add_input("a");
        let floating = nl.add_net("floating");
        let o = nl.add_net("o");
        nl.add_gate(GateType::And, vec![a, floating], o).unwrap();
        assert!(matches!(nl.validate(), Err(NetlistError::Undriven(_))));
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateType::And, vec![a, y], x).unwrap();
        nl.add_gate(GateType::Or, vec![a, x], y).unwrap();
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn dff_breaks_cycle() {
        // x = AND(a, q); q = DFF(x) — legal sequential loop.
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_net("q");
        let x = nl.add_net("x");
        nl.add_gate(GateType::And, vec![a, q], x).unwrap();
        nl.add_dff(x, q).unwrap();
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let m = nl.add_gate_new_net(GateType::And, vec![a, b], "m").unwrap();
        let o = nl.add_gate_new_net(GateType::Not, vec![m], "o").unwrap();
        nl.add_output(o);
        let order = nl.topo_order().unwrap();
        let pos = |gid: GateId| order.iter().position(|&g| g == gid).unwrap();
        // gate 0 drives m, gate 1 reads m.
        assert!(pos(GateId(0)) < pos(GateId(1)));
    }

    #[test]
    fn fanout_lists_every_read_in_gate_order() {
        // m feeds x twice and o once; the flat layout keeps each read.
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let m = nl.add_gate_new_net(GateType::And, vec![a, b], "m").unwrap();
        let x = nl.add_gate_new_net(GateType::Xor, vec![m, m], "x").unwrap();
        let o = nl.add_gate_new_net(GateType::Or, vec![x, m], "o").unwrap();
        nl.add_gate_new_net(GateType::Not, vec![o], "n").unwrap();
        let mut fanout = Fanout::of(&nl);
        assert_eq!(fanout.readers(0), [1, 1, 2]);
        assert_eq!(fanout.readers(1), [2]);
        assert_eq!(fanout.readers(2), [3]);
        assert!(fanout.readers(3).is_empty());
        assert_eq!(fanout.indegree, [0, 2, 2, 1]);
        assert_eq!(fanout.drain(), [0, 1, 2, 3]);
        assert_eq!(fanout.indegree, [0, 0, 0, 0]);
    }

    #[test]
    fn validate_all_collects_every_violation() {
        // Two undriven consumed nets AND a combinational cycle in the
        // same netlist: the single-error API reports the first, the
        // collecting API reports all three.
        let mut nl = Netlist::new("multi");
        let a = nl.add_input("a");
        let f1 = nl.add_net("float1");
        let f2 = nl.add_net("float2");
        let o1 = nl.add_net("o1");
        let o2 = nl.add_net("o2");
        nl.add_gate(GateType::And, vec![a, f1], o1).unwrap();
        nl.add_gate(GateType::Or, vec![a, f2], o2).unwrap();
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateType::And, vec![a, y], x).unwrap();
        nl.add_gate(GateType::Or, vec![a, x], y).unwrap();

        let all = nl.validate_all();
        assert_eq!(all.len(), 3, "{all:?}");
        assert_eq!(all[0], NetlistError::Undriven("float1".into()));
        assert_eq!(all[1], NetlistError::Undriven("float2".into()));
        assert!(matches!(all[2], NetlistError::CombinationalCycle(_)));
        // The thin wrapper still surfaces exactly the first violation.
        assert_eq!(nl.validate(), Err(NetlistError::Undriven("float1".into())));
    }

    #[test]
    fn validate_all_empty_on_valid_netlist() {
        assert!(xor_ff_toy().validate_all().is_empty());
    }

    #[test]
    fn combinational_cycles_report_full_paths() {
        // x = AND(a, y); y = OR(a, x): one cycle through nets {x, y}.
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateType::And, vec![a, y], x).unwrap();
        nl.add_gate(GateType::Or, vec![a, x], y).unwrap();
        let cycles = nl.combinational_cycles();
        assert_eq!(cycles.len(), 1);
        let names: Vec<&str> = cycles[0].iter().map(|&n| nl.net_name(n)).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"x") && names.contains(&"y"));
    }

    #[test]
    fn disjoint_cycles_are_reported_separately() {
        let mut nl = Netlist::new("c2");
        let a = nl.add_input("a");
        for tag in ["p", "q"] {
            let x = nl.add_net(format!("{tag}_x"));
            let y = nl.add_net(format!("{tag}_y"));
            nl.add_gate(GateType::And, vec![a, y], x).unwrap();
            nl.add_gate(GateType::Or, vec![a, x], y).unwrap();
        }
        assert_eq!(nl.combinational_cycles().len(), 2);
        // Gates downstream of a cycle are not themselves a cycle.
        assert!(xor_ff_toy().combinational_cycles().is_empty());
    }

    #[test]
    fn downstream_of_cycle_is_not_a_cycle() {
        // z = NOT(x) hangs off the cycle; the only reported path is x/y.
        let mut nl = Netlist::new("c3");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateType::And, vec![a, y], x).unwrap();
        nl.add_gate(GateType::Or, vec![a, x], y).unwrap();
        nl.add_gate_new_net(GateType::Not, vec![x], "z").unwrap();
        let cycles = nl.combinational_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn is_driven_distinguishes_placeholder_from_constant() {
        let mut nl = Netlist::new("d");
        let floating = nl.add_net("floating");
        let gnd = nl.add_const("gnd", false);
        assert!(!nl.is_driven(floating));
        assert!(nl.is_driven(gnd));
        assert_eq!(nl.driver(floating), nl.driver(gnd), "same placeholder");
    }

    #[test]
    fn constants_are_driven() {
        let mut nl = Netlist::new("k");
        let one = nl.add_const("vcc", true);
        let a = nl.add_input("a");
        let o = nl
            .add_gate_new_net(GateType::And, vec![a, one], "o")
            .unwrap();
        nl.add_output(o);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.driver(one), Driver::ConstOne);
    }
}
