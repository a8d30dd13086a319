module tqp/bench

go 1.23

require tqp v0.0.0

replace tqp => ../
