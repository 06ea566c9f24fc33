module clanbft/benchmark

go 1.22

require clanbft v0.0.0

replace clanbft => ../
