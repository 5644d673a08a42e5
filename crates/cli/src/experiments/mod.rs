//! One module per table/figure of the paper's evaluation.

pub mod batchquery;
pub mod durable;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod sweep;
pub mod table1;
pub mod tools;
