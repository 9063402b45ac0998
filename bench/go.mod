module fovr/bench

go 1.22

require fovr v0.0.0

replace fovr => ../
