//! The scalar zero-delay functional evaluator: one vector per walk, the
//! reference [`PackedEvaluator`](crate::PackedEvaluator) is checked
//! against, built only for tests (`cfg(test)` or the `oracle` feature).

use aix_cells::{CellFunction, MAX_INPUTS, MAX_OUTPUTS};
use aix_netlist::{GateId, NetDriver, Netlist, NetlistError, Schedule};
use std::sync::Arc;

/// Reusable scalar functional evaluator.
///
/// Uses the netlist's cached levelized schedule and reuses its value
/// buffers, so each vector costs one pass over the gate list.
///
/// # Examples
///
/// ```
/// use aix_cells::{CellFunction, DriveStrength, Library};
/// use aix_netlist::Netlist;
/// use aix_sim::Evaluator;
/// use std::sync::Arc;
///
/// let lib = Arc::new(Library::nangate45_like());
/// let mut nl = Netlist::new("xor", lib.clone());
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let xor = lib.find(CellFunction::Xor2, DriveStrength::X1).unwrap();
/// let y = nl.add_gate(xor, &[a, b])?;
/// nl.mark_output("y", y[0]);
///
/// let mut eval = Evaluator::new(&nl)?;
/// assert_eq!(eval.eval(&[true, false])?, &[true]);
/// assert_eq!(eval.eval(&[true, true])?, &[false]);
/// # Ok::<(), aix_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct Evaluator<'nl> {
    netlist: &'nl Netlist,
    /// The netlist's shared levelized schedule.
    schedule: Arc<Schedule>,
    /// Per-gate function, flattened for cache-friendly dispatch.
    functions: Vec<CellFunction>,
    /// Current value of every net.
    values: Vec<bool>,
    /// Output values of the latest evaluation, in port order.
    outputs: Vec<bool>,
}

impl<'nl> Evaluator<'nl> {
    /// Prepares an evaluator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist is cyclic.
    pub fn new(netlist: &'nl Netlist) -> Result<Self, NetlistError> {
        let schedule = netlist.schedule()?;
        let functions = netlist
            .gates()
            .map(|(_, g)| netlist.library().cell(g.cell).function)
            .collect();
        let mut values = vec![false; netlist.net_count()];
        for (id, net) in netlist.nets() {
            if let NetDriver::Constant(v) = net.driver {
                values[id.index()] = v;
            }
        }
        Ok(Self {
            netlist,
            schedule,
            functions,
            values,
            outputs: vec![false; netlist.outputs().len()],
        })
    }

    /// Evaluates one input vector (in primary-input order) and returns the
    /// outputs in port order. The returned slice is valid until the next call.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// match the number of primary inputs.
    pub fn eval(&mut self, inputs: &[bool]) -> Result<&[bool], NetlistError> {
        let expected = self.netlist.inputs().len();
        if inputs.len() != expected {
            return Err(NetlistError::InputWidthMismatch {
                expected,
                provided: inputs.len(),
            });
        }
        for (&net, &value) in self.netlist.inputs().iter().zip(inputs) {
            self.values[net.index()] = value;
        }
        let mut in_buf = [false; MAX_INPUTS];
        let mut out_buf = [false; MAX_OUTPUTS];
        for &g in self.schedule.order() {
            let gate = self.netlist.gate(GateId::from_raw(g));
            let function = self.functions[g as usize];
            for (slot, &net) in in_buf.iter_mut().zip(&gate.inputs) {
                *slot = self.values[net.index()];
            }
            function.eval(&in_buf[..gate.inputs.len()], &mut out_buf);
            for (pin, &net) in gate.outputs.iter().enumerate() {
                self.values[net.index()] = out_buf[pin];
            }
        }
        for (slot, (_, net)) in self.outputs.iter_mut().zip(self.netlist.outputs()) {
            *slot = self.values[net.index()];
        }
        Ok(&self.outputs)
    }

    /// The settled value of every net after the latest [`eval`](Self::eval).
    /// Useful for activity extraction and as the timed simulator's oracle.
    pub fn net_values(&self) -> &[bool] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_cells::{DriveStrength, Library};

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    #[test]
    fn width_mismatch_detected() {
        let lib = lib();
        let mut nl = Netlist::new("w", lib.clone());
        let a = nl.add_input("a");
        nl.mark_output("y", a);
        let mut eval = Evaluator::new(&nl).unwrap();
        assert!(matches!(
            eval.eval(&[true, false]),
            Err(NetlistError::InputWidthMismatch { .. })
        ));
    }

    #[test]
    fn passthrough_output() {
        let lib = lib();
        let mut nl = Netlist::new("pass", lib);
        let a = nl.add_input("a");
        nl.mark_output("y", a);
        let mut eval = Evaluator::new(&nl).unwrap();
        assert_eq!(eval.eval(&[true]).unwrap(), &[true]);
        assert_eq!(eval.eval(&[false]).unwrap(), &[false]);
    }

    #[test]
    fn exhaustive_two_gate_circuit() {
        // y = !(a & b) XOR c  built from NAND2 and XOR2.
        let lib = lib();
        let nand = lib.find(CellFunction::Nand2, DriveStrength::X1).unwrap();
        let xor = lib.find(CellFunction::Xor2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("f", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let n = nl.add_gate(nand, &[a, b]).unwrap()[0];
        let y = nl.add_gate(xor, &[n, c]).unwrap()[0];
        nl.mark_output("y", y);
        let mut eval = Evaluator::new(&nl).unwrap();
        for bits in 0u8..8 {
            let (a, b, c) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let expect = !(a & b) ^ c;
            assert_eq!(eval.eval(&[a, b, c]).unwrap(), &[expect], "bits {bits:03b}");
        }
    }

    #[test]
    fn net_values_expose_internals() {
        let lib = lib();
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("inv", lib.clone());
        let a = nl.add_input("a");
        let y = nl.add_gate(inv, &[a]).unwrap()[0];
        nl.mark_output("y", y);
        let mut eval = Evaluator::new(&nl).unwrap();
        eval.eval(&[true]).unwrap();
        assert!(eval.net_values()[a.index()]);
        assert!(!eval.net_values()[y.index()]);
    }

    #[test]
    fn inverter_chain_is_identity() {
        let lib = lib();
        let inv = lib.find(CellFunction::Inv, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("chain", lib.clone());
        let a = nl.add_input("a");
        let x = nl.add_gate(inv, &[a]).unwrap();
        let y = nl.add_gate(inv, &[x[0]]).unwrap();
        nl.mark_output("y", y[0]);
        assert_eq!(crate::oracle::eval(&nl, &[true]).unwrap(), vec![true]);
        assert_eq!(crate::oracle::eval(&nl, &[false]).unwrap(), vec![false]);
    }

    #[test]
    fn constant_inputs_are_read() {
        let lib = lib();
        let and = lib.find(CellFunction::And2, DriveStrength::X1).unwrap();
        let mut nl = Netlist::new("const", lib.clone());
        let a = nl.add_input("a");
        let one = nl.constant(true);
        let y = nl.add_gate(and, &[a, one]).unwrap();
        nl.mark_output("y", y[0]);
        assert_eq!(crate::oracle::eval(&nl, &[true]).unwrap(), vec![true]);
        assert_eq!(crate::oracle::eval(&nl, &[false]).unwrap(), vec![false]);
    }

    #[test]
    fn multi_output_gate_outputs_in_port_order() {
        let lib = lib();
        let fa = lib
            .find(CellFunction::FullAdder, DriveStrength::X1)
            .unwrap();
        let mut nl = Netlist::new("fa", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let out = nl.add_gate(fa, &[a, b, c]).unwrap();
        nl.mark_output("sum", out[0]);
        nl.mark_output("cout", out[1]);
        assert_eq!(
            crate::oracle::eval(&nl, &[true, true, true]).unwrap(),
            vec![true, true]
        );
        assert_eq!(
            crate::oracle::eval(&nl, &[true, false, false]).unwrap(),
            vec![true, false]
        );
    }
}
