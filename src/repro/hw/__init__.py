"""Hardware bookkeeping: buffers, connections, ASIC area/power, FPGA usage."""

from repro.hw.area import (
    AreaBreakdown,
    CHANNEL_NODE_AREA_MM2,
    DIMM_RANK_NODE_AREA_MM2,
    PE_AREA_MM2,
    pe_area_mm2,
    recnmp_system_area_mm2,
    reference_system_area,
    system_area,
)
from repro.hw.buffers import (
    BufferSizing,
    PES_PER_CHANNEL_NODE,
    PES_PER_DIMM_RANK_NODE,
    size_buffers,
    table1,
)
from repro.hw.connections import (
    ConnectionComparison,
    all_to_all_connections,
    fafnir_connections,
)
from repro.hw.link import LinkModel
from repro.hw.fpga import (
    FpgaUtilization,
    PE_RESOURCES,
    XCVU9P,
    pe_utilization,
    system_utilization,
    table5,
)
from repro.hw.power import (
    AsicPower,
    CHANNEL_NODE_MW,
    DIMM_RANK_NODE_MW,
    PE_MW,
    SYSTEM_MW,
    fpga_node_power_w,
    fpga_power_breakdown_w,
    memory_energy_saving,
    recnmp_comparison_mw,
)

__all__ = [
    "AreaBreakdown",
    "AsicPower",
    "BufferSizing",
    "CHANNEL_NODE_AREA_MM2",
    "CHANNEL_NODE_MW",
    "ConnectionComparison",
    "DIMM_RANK_NODE_AREA_MM2",
    "DIMM_RANK_NODE_MW",
    "FpgaUtilization",
    "LinkModel",
    "PES_PER_CHANNEL_NODE",
    "PES_PER_DIMM_RANK_NODE",
    "PE_AREA_MM2",
    "PE_MW",
    "PE_RESOURCES",
    "SYSTEM_MW",
    "XCVU9P",
    "all_to_all_connections",
    "fafnir_connections",
    "fpga_node_power_w",
    "fpga_power_breakdown_w",
    "memory_energy_saving",
    "pe_area_mm2",
    "pe_utilization",
    "recnmp_comparison_mw",
    "recnmp_system_area_mm2",
    "reference_system_area",
    "size_buffers",
    "system_area",
    "system_utilization",
    "table1",
    "table5",
]
