//! The one-switch rig the soil properties share: a machine compiled
//! against a small fabric, and a soil beside the switch it runs on.

use std::sync::Arc;

use farm_almanac::analysis::ConstEnv;
use farm_almanac::compile::{compile_machine, frontend, CompiledMachine};
use farm_netsim::controller::SdnController;
use farm_netsim::switch::{Switch, SwitchModel};
use farm_netsim::topology::Topology;
use farm_netsim::types::SwitchId;
use farm_soil::{Soil, SoilConfig};

pub fn compile(src: &str, machine: &str) -> Arc<CompiledMachine> {
    let topo = Topology::spine_leaf(1, 2, SwitchModel::test_model(8), SwitchModel::test_model(8));
    let ctl = SdnController::new(&topo);
    let program = frontend(src).unwrap();
    Arc::new(compile_machine(&program, machine, &ConstEnv::new(), &ctl).unwrap())
}

pub fn rig(id: u32, model: SwitchModel) -> (Soil, Switch) {
    (
        Soil::new(SwitchId(id), SoilConfig::default()),
        Switch::new(SwitchId(id), model),
    )
}
