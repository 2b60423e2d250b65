module compositetx/bench

go 1.22

require compositetx v0.0.0

replace compositetx => ../
