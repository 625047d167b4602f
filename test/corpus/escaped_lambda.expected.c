int scale_factor = 3;

int area = 12;

int volume = 15;
